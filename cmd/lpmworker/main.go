// Command lpmworker hosts one sweep-fabric worker: it connects to a
// coordinator (an lpmexplore or lpmreport run started with -shard, or
// an lpmserve fleet), announces its execution slots, and serves
// simulation granules until the coordinator finishes or a signal
// arrives.
//
// Usage:
//
//	lpmworker [flags] host:port
//	lpmworker -slots 4 -name rack3 127.0.0.1:7707
//
// -slots is the supply rate the worker announces: the coordinator hands
// it at most slots+1 granules (one per slot, one prefetched behind them)
// and fills the least-loaded worker first, so slots are the only
// capacity knob in the fleet.
//
// The worker is stateless: every granule is a pure function of its
// spec, so a worker may be killed, restarted, or added mid-run without
// affecting results — only throughput. It exits 0 when the coordinator
// disconnects (the run is over) and on SIGINT/SIGTERM (signal-aware via
// internal/resilience), and non-zero only on genuine transport or
// protocol failures. Every simulation a granule runs arms the standard
// livelock watchdog on its chip, so a wedged simulation surfaces as a
// granule error instead of a hung worker; the straggler re-issue on the
// coordinator covers the window in between.
//
// Diagnostics are structured (log/slog) on stderr — text by default,
// JSON with -log json. On SIGTERM mid-granule the worker logs the
// granule key it is abandoning (the coordinator re-issues it), and if
// an established session breaks (-reconnect > 0) it redials; a session
// under the same -name that the coordinator still holds is replaced.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/fabric"
	"lpm/internal/obs"
	"lpm/internal/resilience"
	"lpm/internal/resilience/fleet"

	// Register the granule executors this worker can run: the
	// design-point simulation and the two profiling kinds.
	_ "lpm/internal/explore"
	_ "lpm/internal/sched"
)

func main() {
	ctx, stop := resilience.WithSignals(context.Background())
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -help is a successful outcome for a worker smoke test: CI
		// probes `lpmworker -help` to prove the binary runs at all.
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lpmworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("name", "", "worker name in coordinator logs (default: local address)")
		slots     = fs.Int("slots", runtime.GOMAXPROCS(0), "granules executed concurrently, 1..1024; the coordinator keeps slots+1 granules here (one prefetched)")
		retry     = fs.Duration("retry", 10*time.Second, "keep retrying the initial dial for this long")
		reconnect = fs.Int("reconnect", 2, "redial a broken (previously established) session up to this many times; 0 = exit on the first break")
		seed      = fs.Uint64("seed", 0, "seed for the deterministic retry-jitter stream")
		quiet     = fs.Bool("quiet", false, "suppress structured progress logging on stderr")
		logFmt    = fs.String("log", "text", "log format on stderr: text or json")
		version   = fs.Bool("version", false, "print the fabric protocol version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		_, err := fmt.Fprintf(stdout, "lpmworker fabric-proto %d (kinds: %v)\n", fabric.ProtoVersion, fabric.Kinds())
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: lpmworker [flags] host:port")
		return errors.New("exactly one coordinator address required")
	}

	log := cliutil.DiscardLogger()
	if !*quiet {
		log = cliutil.NewLogger(stderr, *logFmt)
	}
	reg := obs.NewRegistry()
	opts := fabric.WorkerOptions{
		Name:      *name,
		Slots:     *slots,
		DialRetry: *retry,
		Seed:      *seed,
		Log:       log,
		Obs:       fabric.NewWorkerTelemetry(reg),
	}

	var err error
	for attempt := 0; ; attempt++ {
		err = fabric.RunWorker(ctx, fs.Arg(0), opts)
		if err == nil || ctx.Err() != nil {
			err = nil
			break
		}
		// A dial that never connected is not worth retrying beyond the
		// -retry window RunWorker already spent; an established session
		// that broke is — the coordinator may still be alive, holding
		// re-issued copies of whatever this worker abandoned.
		if errors.Is(err, fabric.ErrDial) || attempt >= *reconnect {
			break
		}
		log.Warn("fabric: session broke; reconnecting",
			"attempt", attempt+1, "of", *reconnect, "err", err.Error())
		// Pace the redial with the shared backoff policy: seeded jitter,
		// capped exponential — the same discipline every fabric retry
		// loop follows.
		if serr := fleet.Defaults(*seed).Sleep(ctx, attempt); serr != nil {
			break
		}
	}
	logWorkerSummary(log, reg.Snapshot())
	return err
}

// logWorkerSummary emits the end-of-life telemetry line: how many
// granules this worker executed, at what latency, and how many it
// abandoned to shutdown. Reads the snapshot after RunWorker returned,
// when the worker is single-goroutine again.
func logWorkerSummary(log *slog.Logger, s *obs.Snapshot) {
	lat, _ := s.Metric("worker.granule_seconds")
	attrs := []any{
		"executed", s.Counter("worker.granules_executed"),
		"failed", s.Counter("worker.granules_failed"),
		"abandoned", s.Counter("worker.granules_abandoned"),
	}
	if lat.Hist != nil && lat.Hist.Count > 0 {
		attrs = append(attrs,
			"granule_seconds_p50", lat.Hist.P50,
			"granule_seconds_p99", lat.Hist.P99)
	}
	log.Info("fabric: worker summary", attrs...)
}
