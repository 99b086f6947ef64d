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
	"slices"
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
		ckpt      = fset.String("checkpoint", "", "persist simulation results to this file after every experiment (atomic rewrite)")
		resume    = fset.String("resume", "", "seed the simulation cache from this checkpoint before running (missing file = cold start; implies -checkpoint)")
		pprofCfg  = fset.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	shard := fabric.BindShardFlags(fset)
	if err := fset.Parse(args); err != nil {
		return err
	}
	lpm.SetWorkers(*workers)
	cliutil.StartPprof(*pprofCfg, stderr)
	stopShard, err := shard.Start(ctx, cliutil.NewLogger(stderr, "text"))
	if err != nil {
		return err
	}
	defer stopShard()

	scale := lpm.FullScale()
	if *quick {
		scale = lpm.QuickScale()
	}
	scale.WarmupFast = *warmFast
	opts := lpm.ReportOptions{Scale: scale, Observe: *observe, IntervalSamples: *intervalN}
	key := fmt.Sprintf("lpmreport|%+v|obs=%v|samples=%d", scale, *observe, *intervalN)
	ckptPath, err := lpm.ResumeMemoCheckpoint(*ckpt, *resume, key, stderr)
	if err != nil {
		return err
	}

	names := strings.Split(*experiment, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	opts.Experiments = experiments(names, !*jsonOut)
	if len(opts.Experiments) == 0 {
		return nil // text mode: no name selected a section
	}
	save := func() {
		if ckptPath == "" {
			return
		}
		if err := lpm.SaveMemoCheckpoint(ckptPath, "lpmreport", key); err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
		}
	}
	// Each experiment is checkpointed as it is delivered, so a killed run
	// resumes without redoing finished experiments, and in text mode
	// rendered; a render error stops the run.
	p := cliutil.NewPrinter(stdout)
	opts.OnExperiment = func(er lpm.ExperimentReport) error {
		save()
		if *jsonOut {
			return nil
		}
		return render(p, names, er)
	}
	rep, err := lpm.BuildReportCtx(ctx, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if rep.Partial {
		save() // the aborted experiment's finished simulations
		return fmt.Errorf("interrupted: completed %v, aborted %v", rep.Completed, rep.Aborted)
	}
	return p.Err()
}

// views are the text report's sections in print order, each naming the
// report experiment it renders; fig6 and fig7 are two views of the one
// fig67 profiling table.
var views = []struct{ name, exp string }{
	{"fig1", "fig1"}, {"table1", "table1"}, {"casestudy1", "casestudy1"},
	{"fig6", "fig67"}, {"fig7", "fig67"}, {"fig8", "fig8"},
	{"interval", "interval"}, {"identities", "identities"}, {"timeline", "timeline"},
}

// experiments resolves the -experiment names to the report experiments
// to build; "all" selects every one. The text report prints in report
// order and an unknown name selects nothing; the JSON document keeps
// request order and passes an unknown name on for BuildReportCtx to
// reject.
func experiments(names []string, text bool) []string {
	if slices.Contains(names, "all") {
		return lpm.ReportExperiments()
	}
	var want []string
	add := func(exp string) {
		if !slices.Contains(want, exp) {
			want = append(want, exp)
		}
	}
	if text {
		for _, v := range views {
			if slices.Contains(names, v.name) {
				add(v.exp)
			}
		}
		return want
	}
	for _, name := range names {
		if name == "fig6" || name == "fig7" {
			name = "fig67"
		}
		add(name)
	}
	return want
}

// render prints the selected text views of one finished experiment. A
// failed experiment or cell ends its section with the error, after the
// rows before it.
func render(p *cliutil.Printer, names []string, er lpm.ExperimentReport) error {
	for _, v := range views {
		if v.exp != er.Name || !(slices.Contains(names, v.name) || slices.Contains(names, "all")) {
			continue
		}
		p.Printf("==== %s ====\n", v.name)
		if er.Err != "" {
			return errors.New(er.Err)
		}
		var err error
		switch v.name {
		case "fig1":
			fig1(p, er.Fig1)
		case "table1":
			err = table1(p, er.Table1)
		case "casestudy1":
			caseStudy1(p, er.CaseStudy1)
		case "fig6", "fig7":
			fig67(p, er.Fig67, v.name == "fig6")
		case "fig8":
			fig8(p, er.Fig8)
		case "interval":
			intervalStudy(p, er.Interval)
		case "identities":
			err = identities(p, er.Identities)
		case "timeline":
			err = timeline(p, er.Timeline)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		p.Println()
	}
	return p.Err()
}

func fig1(p *cliutil.Printer, f *lpm.Fig1JSON) {
	ref, m := f.Paper, f.Measured
	p.Println("Fig. 1 worked example (paper vs measured):")
	p.Printf("  C-AMAT  %.3f  vs  %.3f\n", ref.CAMAT, m.CAMAT)
	p.Printf("  AMAT    %.3f  vs  %.3f\n", ref.AMAT, m.AMAT)
	p.Printf("  C_H     %.3f  vs  %.3f\n", ref.CH, m.CH)
	p.Printf("  C_M     %.3f  vs  %.3f\n", ref.CM, m.CM)
	p.Printf("  pAMP    %.3f  vs  %.3f\n", ref.PAMP, m.PAMP)
	p.Printf("  pMR     %.3f  vs  %.3f\n", ref.PMR, m.PMR)
	p.Printf("  1/APC = %.3f (Eq. 3 check)\n", f.InvAPC)
}

func table1(p *cliutil.Printer, rows []lpm.Table1JSON) error {
	p.Println("Table I — LPMRs under configurations with incremental parallelism (410.bwaves-like):")
	p.Printf("%-4s %-48s %-24s %-24s %s\n", "cfg", "point", "paper LPMR1/2/3", "measured LPMR1/2/3", "stall% of CPIexe")
	for _, r := range rows {
		if r.Err != "" {
			return fmt.Errorf("%s: %s", r.Name, r.Err)
		}
		p.Printf("%-4s %-48s %4.1f / %4.1f / %4.1f       %5.2f / %5.2f / %5.2f     %5.1f%%\n",
			r.Name, r.Point, r.PaperLPMR[0], r.PaperLPMR[1], r.PaperLPMR[2],
			r.LPMR[0], r.LPMR[1], r.LPMR[2], 100*r.StallMeasured/r.CPIexe)
	}
	return nil
}

func caseStudy1(p *cliutil.Printer, rows []lpm.CaseStudyJSON) {
	for _, c := range rows {
		p.Printf("case study I, %s: steps=%d simulations=%d of %d (%.4f%%)\n",
			c.Grain, c.Steps, c.Evaluations, c.SpaceSize, 100*float64(c.Evaluations)/float64(c.SpaceSize))
		p.Printf("  final point: %s (cost %.0f)\n", c.FinalPoint, c.FinalCost)
		p.Printf("  final LPMR1=%.3f stall=%.4f (%.2f%% of CPIexe) converged=%v met=%v\n",
			c.FinalLPMR1, c.FinalStall, 100*c.FinalStall/c.FinalCPIexe, c.Converged, c.MetTarget)
	}
}

func fig67(p *cliutil.Printer, t *lpm.Fig67JSON, apc1 bool) {
	which, data := "APC1 (Fig. 6: L1 supply rate)", t.APC1
	if !apc1 {
		which, data = "APC2 (Fig. 7: L2 demand)", t.APC2
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
}

func fig8(p *cliutil.Printer, rows []lpm.Fig8Row) {
	p.Println("Fig. 8 — Hsp of scheduling schemes on the NUCA 16-core CMP (paper vs measured):")
	for _, r := range rows {
		p.Printf("  %-12s %.4f  vs  %.4f\n", r.Scheduler, r.PaperHsp, r.Hsp)
	}
}

func intervalStudy(p *cliutil.Printer, rows []lpm.IntervalRow) {
	p.Println("Interval study — burst patterns perceived and processed timely (paper vs analytic vs simulated):")
	for _, r := range rows {
		p.Printf("  %-16s %.2f  vs  %.4f  vs  %.4f\n", r.Scenario, r.Paper, r.Analytic, r.Simulated)
	}
}

func timeline(p *cliutil.Printer, rows []lpm.TimelineJSON) error {
	p.Println("Timeline — windowed LPMR1 over the measurement interval (410.bwaves-like):")
	for _, r := range rows {
		if r.Err != "" {
			return fmt.Errorf("%s: %s", r.Name, r.Err)
		}
		if r.Series == nil || len(r.Series.Windows) == 0 {
			p.Printf("  %-4s (no windows)\n", r.Name)
			continue
		}
		lpmr1 := r.Series.LPMR1Series()
		p.Printf("  cfg %-4s windows=%-4d width=%-6d LPMR1 min=%.2f max=%.2f (mean %.2f)\n",
			r.Name, len(r.Series.Windows), r.Series.Width, slices.Min(lpmr1), slices.Max(lpmr1), r.LPMR1)
	}
	return nil
}

func identities(p *cliutil.Printer, rows []lpm.IdentityReport) error {
	p.Println("Model identities on live simulations:")
	for _, r := range rows {
		if r.Err != "" {
			return fmt.Errorf("%s: %s", r.Workload, r.Err)
		}
		p.Printf("  %-14s |C-AMAT-1/APC|=%.2g  Eq4 rel.err=%.1f%%  stall model=%.4f measured=%.4f\n",
			r.Workload, r.CAMATvsInvAPC, 100*r.RecursionRelErr, r.StallModel, r.StallMeasured)
	}
	return nil
}
