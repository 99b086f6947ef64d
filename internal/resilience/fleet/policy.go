// Package fleet holds what the sweep fabric and the control plane share
// for surviving slow, flaky and lying workers (and a murdered
// coordinator) without perturbing bit-identical results: one seeded
// retry/backoff policy, the remote-error classification, and the
// append-only scheduling journal with its replay. The scheduling
// decisions themselves — dispatch, replicas, health, quarantine — live
// in the fabric's scheduler, which journals here the ones a successor
// restores.
//
// The backoff delay is a pure function of (seed, attempt) through
// splitmix64: no wall clocks, no global RNG, so the chaos suite replays
// every scenario deterministically, and `lpmlint` enforces the
// discipline.
package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"time"

	"lpm/internal/stats"
)

// RetryPolicy is the shared deterministic backoff schedule: capped
// exponential growth with seeded jitter. The same policy value produces
// the same delay for the same attempt on every run — jitter comes from
// a splitmix64 stream over (Seed, attempt), never from wall clocks or
// math/rand — so retry timing is reproducible and lint-enforceable.
//
// The zero value is not useful; call Defaults (or fill every field) and
// share one policy across the dial, reconnect and granule-requeue paths
// so the whole fleet backs off coherently.
type RetryPolicy struct {
	// Base is the delay before the first retry (attempt 0).
	Base time.Duration
	// Cap bounds the grown delay; the jittered delay never exceeds it.
	Cap time.Duration
	// Multiplier grows the delay per attempt (2 doubles each time).
	Multiplier float64
	// Jitter in [0,1] is the fraction of each delay drawn from the
	// seeded stream: 0 is fully deterministic spacing, 0.5 spreads each
	// delay over [0.5d, d]. Jitter decorrelates a thundering herd of
	// reconnecting workers without sacrificing replayability.
	Jitter float64
	// Seed selects the jitter stream. Two workers with different seeds
	// spread apart; the same seed replays the same schedule.
	Seed uint64
}

// Defaults returns the fleet-wide standard policy: 50ms doubling to a
// 5s cap, half-jittered, on the given seed.
func Defaults(seed uint64) RetryPolicy {
	return RetryPolicy{
		Base:       50 * time.Millisecond,
		Cap:        5 * time.Second,
		Multiplier: 2,
		Jitter:     0.5,
		Seed:       seed,
	}
}

// Delay returns the backoff before retry number attempt (0-based). It
// is a pure function of the policy and the attempt: grow Base by
// Multiplier^attempt, cap at Cap, then jitter the configured fraction
// using the seeded stream.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	base := p.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 5 * time.Second
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= mult
		if d >= float64(cap) {
			d = float64(cap)
			break
		}
	}
	if d > float64(cap) {
		d = float64(cap)
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	}
	if j > 1 {
		j = 1
	}
	if j > 0 {
		// Draw in [0,1) from the (seed, attempt) cell of the stream, so
		// each attempt's jitter is independent but replayable.
		cell := p.Seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15
		draw := float64(stats.SplitMix64(&cell)>>11) / float64(1<<53)
		d = d * (1 - j*draw)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Sleep waits out Delay(attempt) or returns early with ctx's error when
// the context ends first. The *decision* (how long) is deterministic;
// only the waiting itself touches the clock.
func (p RetryPolicy) Sleep(ctx context.Context, attempt int) error {
	// The backoff duration is decided purely from (seed, attempt);
	// the timer only implements the wait.
	t := time.After(p.Delay(attempt))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t:
		return nil
	}
}

// RemoteError is a worker-side failure carried through a result frame
// with its transience classification intact. Error() returns the
// worker's text verbatim — a sharded run's error cells render
// byte-identical to a serial run's — while the retry policy reads
// Transient to decide whether re-running the granule could help.
type RemoteError struct {
	// Text is the worker-side error text, verbatim.
	Text string
	// Transient reports whether the failure is worth retrying
	// (transport glitches) as opposed to deterministic (a simulation
	// error that will reproduce on every worker).
	Transient bool
}

// Error returns the remote text unchanged.
func (e *RemoteError) Error() string { return e.Text }

// IsTransient implements the classification interface.
func (e *RemoteError) IsTransient() bool { return e.Transient }

// transienter is the classification hook: errors can declare their own
// transience (RemoteError does).
type transienter interface{ IsTransient() bool }

// IsTransient classifies an error for the retry policy: true means a
// retry could plausibly succeed (transport broke), false means the
// failure is deterministic or the caller is shutting down. Unknown
// errors default to permanent — retrying a failure we cannot classify
// burns budget without evidence.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.IsTransient()
	}
	// A cancelled or timed-out context is the caller ending the work,
	// not the work failing.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Streams that broke mid-conversation: the peer may be back.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ETIMEDOUT) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
