// Command lpmexplore runs the paper's case study I: LPM-guided design
// space exploration on a reconfigurable single-core architecture. It
// starts from Table I's configuration A and walks the one-million-point
// space with the Fig. 3 LPMR-reduction algorithm, printing each step.
//
// Usage:
//
//	lpmexplore -grain fine -workload 410.bwaves
//	lpmexplore -json -observe       # machine-readable lpm-explore/v1 document
//	lpmexplore -checkpoint run.ckpt # durable cache, survives kill -9
//	lpmexplore -resume run.ckpt     # replay from the checkpoint
//	lpmexplore -shard 127.0.0.1:7707 -shard-min 4  # fan simulations out to lpmworker processes
//
// SIGINT/SIGTERM drain the in-flight simulations and, in -json mode,
// still emit a decodable document with "partial": true.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lpm"
	"lpm/internal/cliutil"
	"lpm/internal/core"
	"lpm/internal/explore"
	"lpm/internal/fabric"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
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
	fset := flag.NewFlagSet("lpmexplore", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		workload = fset.String("workload", "410.bwaves", "built-in workload profile")
		grain    = fset.String("grain", "fine", "stall target: fine (1%) or coarse (10%)")
		warmup   = fset.Uint64("warmup", 250000, "warm-up instructions per evaluation")
		window   = fset.Uint64("window", 30000, "measured instructions per evaluation")
		start    = fset.String("start", "A", "starting Table I configuration (A..E)")
		maxSteps = fset.Int("maxsteps", 32, "algorithm step bound")
		workers  = fset.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		jsonOut  = fset.Bool("json", false, "emit a versioned lpm-explore/v1 JSON document on stdout")
		observe  = fset.Bool("observe", false, "attach per-layer metrics snapshots to every measurement")
		ckpt     = fset.String("checkpoint", "", "persist every simulation result to this file (atomic rewrite per evaluation; survives kill -9)")
		resume   = fset.String("resume", "", "seed the simulation cache from this checkpoint before running (missing file = cold start; implies -checkpoint to the same path)")
		watchdog = fset.Uint64("watchdog", 0, "per-evaluation no-progress cycle budget before a livelock diagnostic (0 = default)")
		pprofCfg = fset.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	shard := fabric.BindShardFlags(fset)
	if err := fset.Parse(args); err != nil {
		return err
	}
	parallel.SetWorkers(*workers)
	cliutil.StartPprof(*pprofCfg, stderr)
	stopShard, err := shard.Start(ctx, cliutil.NewLogger(stderr, "text"))
	if err != nil {
		return err
	}
	defer stopShard()

	prof, err := trace.ProfileByName(*workload)
	if err != nil {
		return err
	}
	var g core.Grain
	switch *grain {
	case "fine":
		g = core.FineGrain
	case "coarse":
		g = core.CoarseGrain
	default:
		return fmt.Errorf("unknown grain %q (valid: fine, coarse)", *grain)
	}
	startPt, ok := explore.TableConfigs()[*start]
	if !ok {
		return fmt.Errorf("unknown start configuration %q", *start)
	}

	space := explore.DefaultSpace()
	tgt := explore.NewHardwareTarget(space, startPt, prof)
	tgt.Warmup = *warmup
	tgt.Instructions = *window
	tgt.Observe = *observe
	tgt.WatchdogCycles = *watchdog

	// The run key ties a checkpoint to the flags that shape simulation
	// results; -resume refuses a file produced under different ones.
	key := fmt.Sprintf("lpmexplore|%s|%s|%s|%d|%d|%d|obs=%v",
		*workload, g.String(), *start, *warmup, *window, *maxSteps, *observe)
	ckptPath, err := lpm.ResumeMemoCheckpoint(*ckpt, *resume, key, stderr)
	if err != nil {
		return err
	}
	if ckptPath != "" {
		tgt.OnEvaluate = func(explore.Evaluation) {
			if err := lpm.SaveMemoCheckpoint(ckptPath, "lpmexplore", key); err != nil {
				fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			}
		}
	}

	pr := cliutil.NewPrinter(stdout)
	if !*jsonOut {
		pr.Printf("design space: %d points; start: %s (%s)\n", space.Size(), *start, startPt)
	}
	res, final, runErr := tgt.RunAlgorithmCtx(ctx, core.AlgorithmConfig{Grain: g, SlackFrac: 0.5, MaxSteps: *maxSteps})

	rep := lpm.NewExploreReport(*workload, g.String(), *start, tgt, res, final)
	if runErr != nil {
		rep.Partial = true
		rep.Error = runErr.Error()
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		return runErr
	}

	for i, st := range rep.Steps {
		t2 := "-"
		if st.T2Valid {
			t2 = fmt.Sprintf("%.3f", st.T2)
		}
		pr.Printf("step %2d  case %-26s LPMR1=%.3f LPMR2=%.3f  T1=%.3f T2=%s  stall=%.4f\n",
			i+1, st.Case, st.LPMR[0], st.LPMR[1], st.T1, t2, st.Stall)
	}
	pr.Println()
	if rep.Partial {
		pr.Printf("interrupted after %d steps (%d simulations): %s\n", len(rep.Steps), rep.Evaluations, rep.Error)
		if err := pr.Err(); err != nil {
			return err
		}
		return runErr
	}
	pr.Printf("final configuration: %s  (cost %.0f)\n", rep.FinalPoint, rep.FinalCost)
	pr.Printf("final: %s  stall=%.4f (%.2f%% of CPIexe)\n",
		rep.Final, rep.Final.MeasuredStall, 100*rep.Final.MeasuredStall/rep.Final.CPIexe)
	pr.Printf("converged=%v metTarget=%v  simulations=%d (%.4f%% of the space)\n",
		rep.Converged, rep.MetTarget, rep.Evaluations, 100*float64(rep.Evaluations)/float64(rep.SpaceSize))
	return pr.Err()
}
