// Package parallel is the batch simulation runner shared by every
// experiment driver: a bounded worker pool whose Map* functions fan
// independent jobs out over goroutines while preserving input order,
// plus a content-keyed, single-flight result memo (memo.go) so repeated
// evaluations of the same simulation are free across drivers.
//
// Every simulation in this repository is self-contained — each job
// builds its own trace.Generator and chip.Chip and shares nothing — so
// running jobs concurrently is bit-identical to running them serially.
// The determinism regression tests in the root package pin that
// guarantee.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of goroutines a Map* call may use.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most workers jobs concurrently;
// workers <= 0 means runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// defaultPool serves Map calls that do not carry their own pool. It is
// swapped atomically so the -workers CLI flag can reconfigure it before
// the drivers start.
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(NewPool(0)) }

// SetWorkers reconfigures the default pool; n <= 0 restores the
// GOMAXPROCS default.
func SetWorkers(n int) { defaultPool.Store(NewPool(n)) }

// Workers returns the default pool's concurrency bound.
func Workers() int { return defaultPool.Load().Workers() }

// MapCtx runs fn over jobs on the default pool (see MapPoolCtx) with
// cooperative cancellation: jobs already running when ctx is cancelled
// finish (the drain), jobs not yet started are skipped and report ctx's
// error.
func MapCtx[I, O any](ctx context.Context, jobs []I, fn func(context.Context, I) (O, error)) ([]O, error) {
	return firstError(MapPoolResults(ctx, defaultPool.Load(), jobs, fn))
}

// MapPoolCtx is MapCtx on pool p (nil = the default pool): fn runs over
// every job on at most p.Workers() goroutines and the results come back
// in input order. A panic in fn is recovered and reported as that job's
// error rather than crashing (or deadlocking) the batch. If any job
// fails, MapPoolCtx still waits for the rest and then returns the
// lowest-indexed error, so the error surfaced is the same one the
// serial loop would have hit first.
func MapPoolCtx[I, O any](ctx context.Context, p *Pool, jobs []I, fn func(context.Context, I) (O, error)) ([]O, error) {
	return firstError(MapPoolResults(ctx, p, jobs, fn))
}

// JobResult is one job's outcome under MapResults: its value or error,
// and whether the job actually ran (false when cancellation skipped it).
type JobResult[O any] struct {
	Val O
	Err error
	Ran bool
}

// MapResults runs fn over jobs on the default pool and reports every
// job's outcome individually — the failure-isolation form the
// experiment drivers use so one panicking or livelocked workload
// becomes an error cell instead of poisoning the whole table. See
// MapPoolResults.
func MapResults[I, O any](ctx context.Context, jobs []I, fn func(context.Context, I) (O, error)) []JobResult[O] {
	return MapPoolResults(ctx, defaultPool.Load(), jobs, fn)
}

// MapPoolResults is the core runner behind MapCtx, MapPoolCtx and MapResults:
// input-ordered per-job results, recovered panics, cooperative
// cancellation with drain semantics. A panic whose value is an error is
// wrapped with %w so errors.As reaches structured errors; other panic
// values keep their stack trace, since they are genuine bugs.
func MapPoolResults[I, O any](ctx context.Context, p *Pool, jobs []I, fn func(context.Context, I) (O, error)) []JobResult[O] {
	if p == nil {
		p = defaultPool.Load()
	}
	out := make([]JobResult[O], len(jobs))
	if len(jobs) == 0 {
		return out
	}
	run := func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		out[i].Ran = true
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					out[i].Err = fmt.Errorf("parallel: job %d panicked: %w", i, err)
				} else {
					out[i].Err = fmt.Errorf("parallel: job %d panicked: %v\n%s", i, r, debug.Stack())
				}
			}
		}()
		out[i].Val, out[i].Err = fn(ctx, jobs[i])
	}

	workers := min(p.Workers(), len(jobs))
	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return out
}

// firstError flattens per-job results into the classic ([]O, error)
// shape: all values plus the lowest-indexed error, matching what the
// serial loop would have hit first.
func firstError[O any](results []JobResult[O]) ([]O, error) {
	out := make([]O, len(results))
	var first error
	for i, r := range results {
		out[i] = r.Val
		if r.Err != nil && first == nil {
			first = r.Err
		}
	}
	return out, first
}
