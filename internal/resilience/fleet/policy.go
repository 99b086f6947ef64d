// Package fleet holds the sweep fabric's resilience layer for surviving
// slow, flaky and lying workers (and a murdered coordinator) without
// perturbing bit-identical results: one seeded backoff policy, shared by
// the worker's dial and redial paths, and the append-only scheduling
// journal with its replay. The scheduling decisions themselves —
// dispatch, replicas, health, quarantine — live in the fabric's
// scheduler, which journals here the ones a successor restores.
//
// The backoff delay is a pure function of (seed, attempt) through
// splitmix64: no wall clocks, no global RNG, so the chaos suite replays
// every scenario deterministically, and `lpmlint` enforces the
// discipline.
package fleet

import (
	"context"
	"time"

	"lpm/internal/stats"
)

// The one backoff schedule: 50ms doubling to a 5s cap, each delay
// drawn from [0.5d, d].
const (
	baseDelay = 50 * time.Millisecond
	capDelay  = 5 * time.Second
	jitter    = 0.5
)

// RetryPolicy is the fleet's deterministic backoff schedule: capped
// exponential growth with seeded jitter. The same seed produces the same
// delay for the same attempt on every run — jitter comes from a
// splitmix64 stream over (Seed, attempt), never from wall clocks or
// math/rand — so retry timing is reproducible and lint-enforceable.
type RetryPolicy struct {
	// Seed selects the jitter stream. Two workers with different seeds
	// spread apart; the same seed replays the same schedule.
	Seed uint64
}

// Defaults returns the policy on the given seed.
func Defaults(seed uint64) RetryPolicy { return RetryPolicy{Seed: seed} }

// Delay returns the backoff before retry number attempt (0-based): the
// base doubled attempt times, capped, then shortened by up to half
// using the seeded stream.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	attempt = max(attempt, 0)
	d := float64(baseDelay)
	for i := 0; i < attempt && d < float64(capDelay); i++ {
		d = min(2*d, float64(capDelay))
	}
	// Draw in [0,1) from the (seed, attempt) cell of the stream, so each
	// attempt's jitter is independent but replayable.
	cell := p.Seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15
	draw := float64(stats.SplitMix64(&cell)>>11) / float64(1<<53)
	return time.Duration(max(d*(1-jitter*draw), 1))
}

// Sleep waits out Delay(attempt) or returns early with ctx's error when
// the context ends first. The *decision* (how long) is deterministic;
// only the waiting itself touches the clock.
func (p RetryPolicy) Sleep(ctx context.Context, attempt int) error {
	t := time.After(p.Delay(attempt))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t:
		return nil
	}
}
