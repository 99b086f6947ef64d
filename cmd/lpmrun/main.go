// Command lpmrun simulates one workload on a single-core chip and prints
// the full C-AMAT / LPM report: per-layer analyzer parameters, the three
// LPMRs, η, and modelled vs measured data stall time.
//
// Usage:
//
//	lpmrun -workload 403.gcc -instructions 30000 -l1 32768
//	lpmrun -timeline -tswindow 1024          # windowed LPMR timeline
//	lpmrun -serve localhost:9090 -serve-hold 30s
//
// With -serve, the run exposes live observability over HTTP while it
// executes: /metrics is Prometheus text (latest-window LPMR/C-AMAT
// gauges, stall attribution, and the per-layer metrics snapshot) and
// /timeline is the full windowed series as JSON.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"lpm"
	"lpm/internal/cliutil"
	"lpm/internal/ctrl"
	"lpm/internal/obs/timeseries"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

func main() {
	ctx, stop := resilience.WithSignals(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lpmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "410.bwaves", "built-in workload profile (see -list)")
		workers  = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		list     = fs.Bool("list", false, "list built-in workloads and exit")
		instr    = fs.Uint64("instructions", 30000, "instructions in the measured window")
		warmup   = fs.Uint64("warmup", 150000, "warm-up instructions discarded before measuring")
		warmFast = fs.Bool("warmup-fast", false, "run the warm-up in the functional tier (faster; results differ from detailed warm-up)")
		l1Size   = fs.Uint64("l1", 32*chip.KB, "L1 data cache size in bytes")
		l1Ports  = fs.Int("l1ports", 2, "L1 ports")
		l1MSHRs  = fs.Int("mshrs", 8, "L1 MSHR count")
		l2Size   = fs.Uint64("l2", 4*chip.MB, "L2 size in bytes")
		l2Banks  = fs.Int("l2banks", 8, "L2 interleaving (banks)")
		issue    = fs.Int("issue", 4, "pipeline issue width")
		iw       = fs.Int("iw", 32, "instruction window size")
		rob      = fs.Int("rob", 64, "ROB size")
		metrics  = fs.Bool("metrics", false, "print the per-layer metrics snapshot after the report")
		timeline = fs.Bool("timeline", false, "attach the cycle-windowed sampler and print a timeline summary")
		tsWindow = fs.Uint64("tswindow", 0, "timeline window width in cycles (0 = default)")
		serve    = fs.String("serve", "", "serve live /metrics and /timeline on this address during the run")
		hold     = fs.Duration("serve-hold", 0, "keep the -serve endpoints up this long after the run")
		jsonOut  = fs.Bool("json", false, "emit a versioned lpm-report/v2 document (single-run row) on stdout")
		watchdog = fs.Uint64("watchdog", 0, "no-progress cycle budget before a livelock diagnostic (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetWorkers(*workers)

	p := cliutil.NewPrinter(stdout)
	if *list {
		p.Println(strings.Join(trace.ProfileNames(), "\n"))
		return p.Err()
	}
	prof, err := trace.ProfileByName(*workload)
	if err != nil {
		return err
	}

	cfg := chip.SingleCore(*workload)
	cfg.Cores[0].CPU.IssueWidth = *issue
	cfg.Cores[0].CPU.IWSize = *iw
	cfg.Cores[0].CPU.LSQSize = *iw
	cfg.Cores[0].CPU.ROBSize = *rob
	cfg.Cores[0].L1 = chip.DefaultL1("L1D-0", *l1Size)
	cfg.Cores[0].L1.Ports = *l1Ports
	cfg.Cores[0].L1.MSHRs = *l1MSHRs
	cfg.L2 = chip.DefaultL2("L2", *l2Size)
	cfg.L2.Banks = *l2Banks

	// The run itself is the pipeline the control plane's SimRunner shares;
	// with -serve, windows and throttled snapshots reach the HTTP side
	// through a ctrl.Hub while the simulation stays single-goroutine.
	single := lpm.SingleRun{
		Tool:         "lpmrun",
		Workload:     *workload,
		Config:       &cfg,
		Instructions: *instr,
		Warmup:       *warmup,
		WarmupFast:   *warmFast,
		Watchdog:     *watchdog,
		Observe:      *metrics,
		Timeline:     *timeline,
		TSWindow:     *tsWindow,
	}
	var hub *ctrl.Hub
	if *serve != "" {
		hub = ctrl.NewHub()
		single.Live = hub // only a non-nil hub: a typed nil is not a nil LiveSink
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		// The exposition handlers live in internal/ctrl, shared with the
		// lpmserve control plane's per-run endpoints: one code path, one
		// output format.
		srv := &http.Server{Handler: ctrl.NewExpoMux(hub)}
		defer srv.Close()
		go func() { _ = srv.Serve(ln) }()
		p.Printf("serving /metrics and /timeline on http://%s\n", ln.Addr())
	}

	res, runErr := lpm.RunSingle(ctx, single)
	if res == nil {
		return runErr
	}
	if hub != nil {
		hub.Done()
	}

	if *jsonOut {
		// An interrupted or livelocked run still emits a decodable
		// document, and the process exits non-zero.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report); err != nil {
			return err
		}
		return runErr
	}
	if runErr != nil {
		p.Printf("interrupted at cycle %d: %v\n", res.Chip.Now(), runErr)
		if err := p.Err(); err != nil {
			return err
		}
		return runErr
	}

	r, m, cpiExe := res.Chip.Snapshot(), res.M, res.M.CPIexe

	p.Printf("workload   %s  (fmem=%.3f, footprint=%d KB)\n", *workload, m.Fmem, prof.Footprint/1024)
	p.Printf("core       issue=%d IW=%d ROB=%d   CPIexe=%.3f  IPC=%.3f\n", *issue, *iw, *rob, cpiExe, m.IPC)
	p.Printf("L1         %s\n", r.Cores[0].L1)
	p.Printf("L2         %s\n", r.L2)
	p.Printf("memory     reads=%d writes=%d avgReadLat=%.1f APC3=%.4f rowHit/miss/conf=%d/%d/%d\n",
		r.Mem.Reads, r.Mem.Writes, r.Mem.AvgReadLatency(), r.Mem.APC(),
		r.Mem.RowHits, r.Mem.RowMisses, r.Mem.RowConflicts)
	p.Println()
	p.Printf("LPMR1=%.3f  LPMR2=%.3f  LPMR3=%.3f   eta=%.4f  overlap=%.3f\n",
		m.LPMR1(), m.LPMR2(), m.LPMR3(), m.Eta(), m.OverlapRatio)
	p.Printf("thresholds T1(1%%)=%.3f T1(10%%)=%.3f", m.T1(1), m.T1(10))
	if t2, ok := m.T2(1); ok {
		p.Printf("  T2(1%%)=%.3f", t2)
	}
	p.Println()
	p.Printf("data stall per instruction: model(Eq.12)=%.4f  model(Eq.13)=%.4f  measured=%.4f  (%.1f%% of CPIexe)\n",
		m.StallEq12(), m.StallEq13(), m.MeasuredStall, 100*m.MeasuredStall/cpiExe)

	if *metrics && m.Obs != nil {
		p.Println()
		p.Printf("metrics (snapshot v%d):\n", m.Obs.Version)
		for _, mv := range m.Obs.Metrics {
			switch mv.Kind {
			case "counter":
				p.Printf("  %-24s %d\n", mv.Name, mv.Count)
			case "gauge":
				p.Printf("  %-24s %.4f\n", mv.Name, mv.Value)
			default:
				p.Printf("  %-24s n=%d mean=%.2f p50=%.1f p90=%.1f p99=%.1f\n",
					mv.Name, mv.Hist.Count, mv.Hist.Mean, mv.Hist.P50, mv.Hist.P90, mv.Hist.P99)
			}
		}
	}

	if *timeline && m.Timeline != nil {
		p.Println()
		printTimeline(p, m.Timeline)
	}
	if hub != nil && *hold > 0 {
		p.Printf("holding exposition server for %s\n", *hold)
		time.Sleep(*hold)
	}
	return p.Err()
}

// printTimeline renders the windowed series as a compact table: one row
// per window (eliding the middle of long runs), with the window's IPC,
// LPMR1 and the fraction of core cycles attributed to memory stalls.
func printTimeline(p *cliutil.Printer, ser *timeseries.Series) {
	p.Printf("timeline   %d windows (width=%d dropped=%d):\n",
		len(ser.Windows), ser.Width, ser.Dropped)
	p.Printf("  %-6s %-12s %-8s %-8s %-8s %s\n", "win", "cycles", "ipc", "lpmr1", "lpmr2", "memstall%")
	const headTail = 6
	for i, w := range ser.Windows {
		if len(ser.Windows) > 2*headTail && i == headTail {
			p.Printf("  ... %d windows elided ...\n", len(ser.Windows)-2*headTail)
		}
		if len(ser.Windows) > 2*headTail && i >= headTail && i < len(ser.Windows)-headTail {
			continue
		}
		st := w.AggregateStall()
		memPct := 0.0
		if t := st.Total(); t > 0 {
			memPct = 100 * float64(st.MemStall()) / float64(t)
		}
		p.Printf("  %-6d %5d-%-6d %-8.3f %-8.3f %-8.3f %5.1f%%\n",
			w.Index, w.Start, w.End, w.Derived.IPC, w.Derived.LPMR1, w.Derived.LPMR2, memPct)
	}
}
