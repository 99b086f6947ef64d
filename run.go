package lpm

import (
	"context"
	"fmt"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// SnapshotEvery is the live paths' snapshot cadence in windows: scrapers
// poll at ~1 Hz while windows close every few hundred microseconds, so
// snapshotting the registry on every window costs ~2% of the engine loop
// for no freshness. A final snapshot keeps the end state exact.
const SnapshotEvery = 16

// MaxRunInstructions caps a single run's Instructions and its Warmup
// each. The run's cycle budget is 600 cycles per instruction, which a
// larger count could wrap, and a run cannot be cancelled during its
// CPI_exe calibration, so an unbounded budget would hold a control-plane
// run slot for as long as a client asked; 10^8 is 400 times the
// full-scale warm-up.
const MaxRunInstructions = 100_000_000

// SingleRun describes one run of the single-run pipeline: one workload
// on a single-core chip, measured over one window. cmd/lpmrun and the
// control plane's ctrl.SimRunner are both RunSingle; they differ only in
// the fields they fill.
type SingleRun struct {
	// Tool is recorded in the document; Workload names the built-in
	// profile; Config overrides the chip (nil = SingleCore(Workload)).
	Tool, Workload string
	Config         *ChipConfig
	// Instructions is the measured window after Warmup discarded
	// instructions (functional-tier with WarmupFast); Watchdog the
	// no-progress cycle budget (0 = off).
	Instructions, Warmup, Watchdog uint64
	WarmupFast                     bool
	// Observe attaches the metrics registry; Timeline the windowed
	// sampler (window width TSWindow), attached before warm-up so a live
	// view covers the whole run.
	Observe, Timeline bool
	TSWindow          uint64
	// Live, when non-nil, implies Observe and Timeline and receives the
	// series header, every closed window, a metrics snapshot every
	// SnapshotEvery-th window and a final one. It is called on the
	// simulation goroutine and receives the sampler's stored window
	// itself, which is never written again: it shares it and must not
	// write it.
	Live LiveSink
}

// LiveSink receives a run's progress while it executes; ctrl.Hub is the
// implementation behind lpmrun -serve and every lpmserve run.
type LiveSink interface {
	SetMeta(width uint64)
	PublishShared(w *timeseries.Window)
	PublishSnapshot(s *obs.Snapshot)
}

// SingleResult is a finished run: the chip (for callers that print more
// than M), the window's measurement (zero when the run failed — partial
// counters produce NaNs JSON cannot carry) and the run as a one-row
// lpm-report/v2 document, which for a failed run carries the error in
// the row and Partial.
type SingleResult struct {
	Chip   *Chip
	M      Measurement
	Report *Report
}

// RunSingle executes r: calibrate CPIexe, build the chip, attach the
// requested hooks, warm up, reset, run the window, measure. A nil result
// means the run never started (unknown workload, or Instructions or
// Warmup over MaxRunInstructions); a cancelled or livelocked run returns
// its result alongside the run error.
func RunSingle(ctx context.Context, r SingleRun) (*SingleResult, error) {
	prof, err := trace.ProfileByName(r.Workload)
	if err != nil {
		return nil, err
	}
	if r.Instructions > MaxRunInstructions || r.Warmup > MaxRunInstructions {
		return nil, fmt.Errorf("lpm: instructions %d / warmup %d over the cap of %d each",
			r.Instructions, r.Warmup, MaxRunInstructions)
	}
	cfg := chip.SingleCore(r.Workload)
	if r.Config != nil {
		cfg = *r.Config
	}
	cpiExe := chip.MeasureCPIexe(cfg.Cores[0].CPU, trace.NewSynthetic(prof), uint64(cfg.Cores[0].L1.HitLatency), r.Instructions)

	ch := chip.New(cfg)
	ch.SetContext(ctx)
	if r.Watchdog > 0 {
		ch.SetWatchdog(r.Watchdog)
	}
	if r.Observe || r.Live != nil {
		ch.EnableObs()
	}
	if r.Timeline || r.Live != nil {
		tcfg := timeseries.Config{Width: r.TSWindow, CPIexe: cpiExe}
		if r.Live != nil {
			n := 0
			tcfg.OnWindow = func(w *timeseries.Window) {
				r.Live.PublishShared(w)
				if n%SnapshotEvery == 0 {
					r.Live.PublishSnapshot(ch.ObsSnapshot())
				}
				n++
			}
		}
		s := ch.EnableTimeseries(tcfg)
		if r.Live != nil {
			r.Live.SetMeta(s.Width())
		}
	}

	budget := (r.Warmup + r.Instructions) * 600
	runErr := ch.WarmUp(r.Warmup, chip.WarmInstructions, r.WarmupFast, budget)
	ch.ResetCounters() // also closes the sampler's warm-up window
	if runErr == nil {
		ch.Run(r.Instructions, budget)
		runErr = ch.Err()
	}
	if r.Live != nil {
		r.Live.PublishSnapshot(ch.ObsSnapshot())
	}

	rep := &Report{Schema: ReportSchema, Tool: r.Tool, Scale: Scale{Warmup: r.Warmup, Window: r.Instructions}}
	res := &SingleResult{Chip: ch, Report: rep}
	errMsg := ""
	if runErr != nil {
		errMsg = runErr.Error()
		rep.Partial = true
		rep.Aborted = []string{"run"}
	} else {
		res.M = ch.Measure(0, cpiExe)
	}
	rep.Experiments = []ExperimentReport{{Name: "run",
		Table1: []Table1JSON{table1Row(r.Workload, "", [3]float64{}, res.M, errMsg)}}}
	return res, runErr
}
