// Command lpmserve is the fleet control plane: a long-lived service
// owning a registry of concurrent simulation runs. Clients submit,
// list, inspect and cancel runs over the versioned lpm-ctrl/v1 JSON
// API, stream each run's timeline windows over SSE as they close, and
// scrape one fleet-wide Prometheus endpoint carrying every run's
// observability snapshot.
//
// Usage:
//
//	lpmserve -addr localhost:9090
//	lpmserve -addr :9090 -tenant-budget 1 -max-concurrent 4 -log json
//
//	curl -d '{"workload":"403.gcc","tenant":"acme"}' http://localhost:9090/api/v1/runs
//	curl -N http://localhost:9090/api/v1/runs/r-1/events
//	curl http://localhost:9090/metrics
//
// Runs execute on the in-process simulator under internal/parallel's
// worker budget. SIGINT/SIGTERM drain in-flight requests and running
// simulations for -grace before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/ctrl"
	"lpm/internal/parallel"
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
	fs := flag.NewFlagSet("lpmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "localhost:9090", "control-plane listen address")
		budget  = fs.Int("tenant-budget", 0, "max concurrently running runs per tenant (0 = default 2)")
		maxRuns = fs.Int("max-concurrent", 0, "max concurrently running runs across all tenants (0 = worker budget)")
		workers = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		grace   = fs.Duration("grace", 10*time.Second, "drain window for in-flight requests and runs on shutdown")
		logFmt  = fs.String("log", "text", "log format on stderr: text or json")
	)
	if err := fs.Parse(args); err != nil {
		// The flag set has printed the error and the usage: exit 2.
		return flag.ErrHelp
	}
	parallel.SetWorkers(*workers)
	log := cliutil.NewLogger(stderr, *logFmt)

	reg := ctrl.NewRegistry(ctx, ctrl.Config{
		MaxConcurrent: *maxRuns,
		TenantBudget:  *budget,
		Log:           log,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(stdout, "lpmserve %s on http://%s\n", ctrl.APIVersion, ln.Addr())
	log.Info("ctrl: control plane listening", "addr", fmt.Sprint(ln.Addr()))

	srv := &http.Server{Handler: ctrl.NewAPIMux(reg)}
	if err := resilience.ServeHTTP(ctx, srv, ln, *grace); err != nil {
		return err
	}
	// The serve context is down; running simulations saw the same
	// cancellation and drain to cancelled states.
	reg.Drain()
	log.Info("ctrl: control plane stopped")
	return nil
}
