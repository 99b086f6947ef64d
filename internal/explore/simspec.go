package explore

// SimSpec makes one design-point simulation portable: every input the
// simulation depends on, flattened into exported JSON-safe fields, so a
// granule can cross the sweep fabric's wire and produce the same
// Measurement on any worker that it would have produced in-process.

import (
	"context"
	"fmt"

	"lpm/internal/core"
	"lpm/internal/fabric"
	"lpm/internal/obs/timeseries"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// SimKind is the fabric granule kind for design-point simulations.
const SimKind = "explore.sim"

// SimSpec is the full input fingerprint of one design-point simulation.
// RunSimSpec is a pure function of it (WatchdogCycles excepted: a
// watchdog budget can only turn a livelock into an error, never change
// a successful measurement, so it rides along without joining the key).
type SimSpec struct {
	Point          Point
	Profile        trace.Profile
	Instructions   uint64
	Warmup         uint64
	MaxCycles      uint64
	Observe        bool
	Timeline       bool
	TimelineWindow uint64
	WarmupFast     bool
	WatchdogCycles uint64
}

// MemoKey derives the content key shared by the in-process memo, the
// checkpoint files, and the fabric's result cache. The part order is
// load-bearing: it must stay exactly what the pre-fabric code passed to
// parallel.KeyOf, or existing checkpoints stop resuming warm.
func (s SimSpec) MemoKey() string {
	return parallel.KeyOf("explore.simulate", s.Point, s.Profile,
		s.Instructions, s.Warmup, s.MaxCycles,
		s.Observe, s.Timeline, s.TimelineWindow, s.WarmupFast)
}

// RunSimSpec runs the cycle-level simulation the spec describes: it
// builds a fresh generator and chip per call and touches no shared
// state, so concurrent calls are safe and results are deterministic for
// a given spec.
func RunSimSpec(ctx context.Context, s SimSpec) (core.Measurement, error) {
	budget := s.WatchdogCycles
	if budget == 0 {
		budget = DefaultWatchdogCycles
	}
	gen := trace.NewSynthetic(s.Profile)
	cfg := ChipConfig(s.Point, gen)
	cpiExe := chip.MeasureCPIexe(cfg.Cores[0].CPU, gen, uint64(cfg.Cores[0].L1.HitLatency), s.Instructions)
	ch := chip.New(cfg)
	ch.SetContext(ctx)
	ch.SetWatchdog(budget)
	if s.Observe {
		ch.EnableObs()
	}
	if err := ch.WarmUp(s.Warmup, chip.WarmInstructions, s.WarmupFast, s.MaxCycles); err != nil {
		return core.Measurement{}, fmt.Errorf("simulate %s: %w", s.Profile.Name, err)
	}
	ch.ResetCounters()
	if s.Timeline {
		// Attached after warm-up and reset so the windows tile exactly
		// the measured interval.
		ch.EnableTimeseries(timeseries.Config{Width: s.TimelineWindow, CPIexe: cpiExe})
	}
	ch.Run(s.Instructions, s.MaxCycles)
	if err := ch.Err(); err != nil {
		return core.Measurement{}, fmt.Errorf("simulate %s: %w", s.Profile.Name, err)
	}
	return ch.Measure(0, cpiExe), nil
}

// simKind declares the design-point simulation once: the "explore.sim"
// memo every HardwareTarget in the process shares (Table I, case study
// I and the benchmarks all draw from and fill it), the lpmworker
// executor, and the dispatch between them — there is exactly one
// simulation code path whether a run is serial, parallel, or sharded.
var simKind = fabric.NewKind(SimKind, RunSimSpec)
