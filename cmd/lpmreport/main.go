// Command lpmreport regenerates every table and figure of the paper and
// prints paper-reported values next to this reproduction's measurements.
// See DESIGN.md §3 for the experiment index.
//
// Usage:
//
//	lpmreport                      # everything, full scale
//	lpmreport -quick               # everything, reduced budgets
//	lpmreport -experiment table1   # one experiment
//	lpmreport -json -observe       # machine-readable lpm-report/v2 document
//	lpmreport -quick -shard 127.0.0.1:7707 -shard-min 2  # shard simulations across lpmworker processes
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lpm"
	"lpm/internal/cliutil"
	"lpm/internal/fabric"
	"lpm/internal/resilience"
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
	fset := flag.NewFlagSet("lpmreport", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		experiment = fset.String("experiment", "all",
			"comma-separated subset of: fig1, table1, casestudy1, fig6, fig7, fig8, interval, identities, timeline, all")
		quick     = fset.Bool("quick", false, "reduced simulation budgets")
		warmFast  = fset.Bool("warmup-fast", false, "run warm-up phases in the functional tier (faster; results differ from detailed warm-up)")
		workers   = fset.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		jsonOut   = fset.Bool("json", false, "emit a versioned lpm-report/v2 JSON document on stdout")
		observe   = fset.Bool("observe", false, "attach per-layer metrics snapshots to Table I rows (JSON output)")
		intervalN = fset.Int("interval-samples", 0, "interval study Monte Carlo sample count (0 = default)")
		ckpt      = fset.String("checkpoint", "", "persist simulation results to this file after every experiment (JSON mode; atomic rewrite)")
		resume    = fset.String("resume", "", "seed the simulation cache from this checkpoint before running (missing file = cold start; implies -checkpoint)")
		pprofCfg  = fset.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	shard := fabric.BindShardFlags(fset)
	if err := fset.Parse(args); err != nil {
		return err
	}
	lpm.SetWorkers(*workers)
	cliutil.StartPprof(*pprofCfg, stderr)
	stopShard, _, err := shard.Start(ctx, cliutil.NewLogger(stderr, "text"), nil)
	if err != nil {
		return err
	}
	defer stopShard()

	scale := lpm.FullScale()
	if *quick {
		scale = lpm.QuickScale()
	}
	scale.WarmupFast = *warmFast

	if *jsonOut {
		return runJSON(ctx, *experiment, scale, *observe, *intervalN, *ckpt, *resume, stdout, stderr)
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*experiment, ",") {
		selected[strings.TrimSpace(name)] = true
	}

	p := cliutil.NewPrinter(stdout)
	var failed error
	runExp := func(name string, f func() error) {
		if failed != nil || (!selected["all"] && !selected[name]) {
			return
		}
		p.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
			return
		}
		p.Println()
	}

	runExp("fig1", func() error { return fig1(p) })
	runExp("table1", func() error { return table1(ctx, p, scale) })
	runExp("casestudy1", func() error { return caseStudy1(ctx, p, scale) })
	runExp("fig6", func() error { return fig67(ctx, p, scale, true) })
	runExp("fig7", func() error { return fig67(ctx, p, scale, false) })
	runExp("fig8", func() error { return fig8(ctx, p, scale) })
	runExp("interval", func() error { return intervalStudy(ctx, p) })
	runExp("identities", func() error { return identities(ctx, p, scale) })
	runExp("timeline", func() error { return timeline(ctx, p, scale) })
	if failed != nil {
		return failed
	}
	return p.Err()
}

// runJSON emits the machine-readable report. The text report's fig6 and
// fig7 views share one profiling table, so both keys select the fig67
// experiment here. With a checkpoint path, the experiments run one at a
// time and the memo caches are persisted after each, so a killed run
// resumes without redoing finished experiments' simulations; the merged
// document is identical to a single uncheckpointed run.
func runJSON(ctx context.Context, experiment string, scale lpm.Scale, observe bool, intervalN int, ckpt, resume string, stdout, stderr io.Writer) error {
	var want []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			want = append(want, name)
		}
	}
	for _, name := range strings.Split(experiment, ",") {
		switch name = strings.TrimSpace(name); name {
		case "all":
			want = nil
			seen = nil
		case "fig6", "fig7":
			add("fig67")
		default:
			add(name)
		}
		if seen == nil {
			break
		}
	}
	opts := lpm.ReportOptions{
		Scale:           scale,
		Experiments:     want,
		Observe:         observe,
		IntervalSamples: intervalN,
	}

	key := fmt.Sprintf("lpmreport|%+v|obs=%v|samples=%d", scale, observe, intervalN)
	ckptPath, err := lpm.ResumeMemoCheckpoint(ckpt, resume, key, stderr)
	if err != nil {
		return err
	}

	var rep *lpm.Report
	if ckptPath == "" {
		rep, err = lpm.BuildReportCtx(ctx, opts)
	} else {
		rep, err = buildCheckpointed(ctx, opts, ckptPath, key, stderr)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Partial {
		return fmt.Errorf("interrupted: completed %v, aborted %v", rep.Completed, rep.Aborted)
	}
	return nil
}

// buildCheckpointed runs the report one experiment at a time, saving the
// memo caches after each, and merges the per-experiment documents into
// one. Because every payload is a pure function of (scale, options) via
// the memoised simulations, the merged document matches what a single
// BuildReportCtx call would have produced.
func buildCheckpointed(ctx context.Context, opts lpm.ReportOptions, path, key string, stderr io.Writer) (*lpm.Report, error) {
	want := opts.Experiments
	if len(want) == 0 {
		want = lpm.ReportExperiments()
	}
	var rep *lpm.Report
	for i, name := range want {
		one := opts
		one.Experiments = []string{name}
		r, err := lpm.BuildReportCtx(ctx, one)
		if err != nil {
			return nil, err
		}
		if rep == nil {
			rep = r
		} else {
			rep.Experiments = append(rep.Experiments, r.Experiments...)
		}
		if err := lpm.SaveMemoCheckpoint(path, "lpmreport", key); err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
		}
		if r.Partial {
			rep.Partial = true
			rep.Completed = append([]string(nil), want[:i]...)
			rep.Completed = append(rep.Completed, r.Completed...)
			rep.Aborted = append(r.Aborted, want[i+1:]...)
			break
		}
	}
	return rep, nil
}

func fig1(p *cliutil.Printer) error {
	pt := lpm.Fig1()
	ref := lpm.Fig1Reference()
	p.Println("Fig. 1 worked example (paper vs measured):")
	p.Printf("  C-AMAT  %.3f  vs  %.3f\n", ref.CAMAT, pt.CAMAT())
	p.Printf("  AMAT    %.3f  vs  %.3f\n", ref.AMAT, pt.AMAT())
	p.Printf("  C_H     %.3f  vs  %.3f\n", ref.CH, pt.CH())
	p.Printf("  C_M     %.3f  vs  %.3f\n", ref.CM, pt.CM())
	p.Printf("  pAMP    %.3f  vs  %.3f\n", ref.PAMP, pt.PAMP())
	p.Printf("  pMR     %.3f  vs  %.3f\n", ref.PMR, pt.PMR())
	p.Printf("  1/APC = %.3f (Eq. 3 check)\n", 1/pt.APC())
	return p.Err()
}

// cellErr turns a failed cell (cancelled or livelocked evaluation) into
// the experiment's error; healthy cells return nil.
func cellErr(name, msg string) error {
	if msg == "" {
		return nil
	}
	return fmt.Errorf("%s: %s", name, msg)
}

func table1(ctx context.Context, p *cliutil.Printer, s lpm.Scale) error {
	p.Println("Table I — LPMRs under configurations with incremental parallelism (410.bwaves-like):")
	p.Printf("%-4s %-48s %-24s %-24s %s\n", "cfg", "point", "paper LPMR1/2/3", "measured LPMR1/2/3", "stall% of CPIexe")
	for _, r := range lpm.Table1Ctx(ctx, s, false) {
		if err := cellErr(r.Name, r.Err); err != nil {
			return err
		}
		p.Printf("%-4s %-48s %4.1f / %4.1f / %4.1f       %5.2f / %5.2f / %5.2f     %5.1f%%\n",
			r.Name, r.Point,
			r.PaperLPMR[0], r.PaperLPMR[1], r.PaperLPMR[2],
			r.M.LPMR1(), r.M.LPMR2(), r.M.LPMR3(),
			100*r.M.MeasuredStall/r.M.CPIexe)
	}
	return p.Err()
}

func caseStudy1(ctx context.Context, p *cliutil.Printer, s lpm.Scale) error {
	for _, g := range []lpm.Grain{lpm.CoarseGrain, lpm.FineGrain} {
		res, err := lpm.CaseStudyICtx(ctx, g, s)
		if err != nil {
			return fmt.Errorf("%s: %w", g, err)
		}
		p.Printf("case study I, %s: steps=%d simulations=%d of %d (%.4f%%)\n",
			g, len(res.Algorithm.Steps), res.Evaluations, res.SpaceSize,
			100*float64(res.Evaluations)/float64(res.SpaceSize))
		p.Printf("  final point: %s (cost %.0f)\n", res.Final, res.Final.Cost())
		p.Printf("  final LPMR1=%.3f stall=%.4f (%.2f%% of CPIexe) converged=%v met=%v\n",
			res.Algorithm.Final.LPMR1(), res.Algorithm.Final.MeasuredStall,
			100*res.Algorithm.Final.MeasuredStall/res.Algorithm.Final.CPIexe,
			res.Algorithm.Converged, res.Algorithm.MetTarget)
	}
	return p.Err()
}

func fig67(ctx context.Context, p *cliutil.Printer, s lpm.Scale, apc1 bool) error {
	res, err := lpm.Fig67Ctx(ctx, s)
	if err != nil {
		return err
	}
	t := res.Table
	which := "APC1 (Fig. 6: L1 supply rate)"
	data := t.APC1
	if !apc1 {
		which = "APC2 (Fig. 7: L2 demand)"
		data = t.APC2
	}
	p.Printf("%s per private L1 data cache size:\n", which)
	p.Printf("%-16s", "workload")
	for _, sz := range t.Sizes {
		p.Printf(" %7dKB", sz/1024)
	}
	p.Println()
	for _, n := range t.Workloads {
		p.Printf("%-16s", n)
		for i := range t.Sizes {
			p.Printf(" %9.4f", data[n][i])
		}
		p.Println()
	}
	return p.Err()
}

func fig8(ctx context.Context, p *cliutil.Printer, s lpm.Scale) error {
	rows, err := lpm.Fig8Ctx(ctx, s)
	if err != nil {
		return err
	}
	p.Println("Fig. 8 — Hsp of scheduling schemes on the NUCA 16-core CMP (paper vs measured):")
	for _, r := range rows {
		p.Printf("  %-12s %.4f  vs  %.4f\n", r.Scheduler, r.PaperHsp, r.Hsp)
	}
	return p.Err()
}

func intervalStudy(ctx context.Context, p *cliutil.Printer) error {
	rows, err := lpm.IntervalStudy(ctx, 0)
	if err != nil {
		return err
	}
	p.Println("Interval study — burst patterns perceived and processed timely (paper vs analytic vs simulated):")
	for _, r := range rows {
		p.Printf("  %-16s %.2f  vs  %.4f  vs  %.4f\n", r.Scenario, r.Paper, r.Analytic, r.Simulated)
	}
	return p.Err()
}

func timeline(ctx context.Context, p *cliutil.Printer, s lpm.Scale) error {
	p.Println("Timeline — windowed LPMR1 over the measurement interval (410.bwaves-like):")
	for _, r := range lpm.TimelineStudyCtx(ctx, s) {
		if err := cellErr(r.Name, r.Err); err != nil {
			return err
		}
		ser := r.M.Timeline
		if ser == nil || len(ser.Windows) == 0 {
			p.Printf("  %-4s (no windows)\n", r.Name)
			continue
		}
		lpmr1 := ser.LPMR1Series()
		lo, hi := lpmr1[0], lpmr1[0]
		for _, v := range lpmr1 {
			lo = min(lo, v)
			hi = max(hi, v)
		}
		p.Printf("  cfg %-4s windows=%-4d width=%-6d LPMR1 min=%.2f max=%.2f (mean %.2f)\n",
			r.Name, len(ser.Windows), ser.Width, lo, hi, r.M.LPMR1())
	}
	return p.Err()
}

func identities(ctx context.Context, p *cliutil.Printer, s lpm.Scale) error {
	p.Println("Model identities on live simulations:")
	for _, r := range lpm.IdentitiesCtx(ctx, s) {
		if err := cellErr(r.Workload, r.Err); err != nil {
			return err
		}
		p.Printf("  %-14s |C-AMAT-1/APC|=%.2g  Eq4 rel.err=%.1f%%  stall model=%.4f measured=%.4f\n",
			r.Workload, r.CAMATvsInvAPC, 100*r.RecursionRelErr, r.StallModel, r.StallMeasured)
	}
	return p.Err()
}
