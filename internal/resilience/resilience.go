// Package resilience is the hardened-execution layer of the LPM
// reproduction: cooperative cancellation wired to SIGINT/SIGTERM, a
// structured livelock error carrying the simulator's own diagnostics,
// and a durable checkpoint envelope (magic + length + CRC64)
// for the memo cache and exploration frontier.
//
// The design premise is that a multi-hour sweep must never die with
// zero salvageable output: interruption drains in-flight work and emits
// a partial report, kill -9 loses at most the work since the last
// checkpoint, and a livelocked or panicking workload becomes an error
// cell in the table rather than a dead run.
package resilience

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// WithSignals derives a context cancelled on SIGINT or SIGTERM. The
// returned stop releases the signal registration; a second signal after
// cancellation falls through to the default handler (immediate exit),
// so a stuck drain can still be interrupted.
func WithSignals(ctx context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
}
