// Package parallel is the batch simulation runner shared by every
// experiment driver: a pool of tokens that bounds every simulation in
// the process, Map* functions that fan independent jobs out over it
// while preserving input order, Hold for a serial chain under the same
// bound, and a content-keyed, single-flight result memo (memo.go) so
// repeated evaluations of the same simulation are free across drivers.
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
	"slices"
	"sync"
	"sync/atomic"
)

// Pool is a simulation budget of Workers() tokens. Every job a Map*
// call runs on the pool, and every chain Hold runs, holds one token for
// as long as it runs, so concurrent batches on one pool share the bound
// instead of each getting their own: the default pool makes -workers a
// process-wide budget across experiments running at once. A freed token
// goes to the waiter of highest priority (WithPriority), the earliest
// of them on a tie. A Map* or Hold reached from inside one of the
// pool's jobs runs on that job's token (the job's context records it),
// so nesting never waits on a token its own caller holds, however small
// the pool.
type Pool struct {
	workers int
	mu      sync.Mutex
	busy    int       // tokens held; below workers only while nobody waits
	waiting []*waiter // highest priority first, arrival order within one
}

// waiter is one acquire blocked on a pool whose tokens are all held.
type waiter struct {
	prio  int
	ready chan struct{} // closed when a token is handed to it
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

// heldKey marks a context whose goroutine already holds one of p's
// tokens.
type heldKey struct{ p *Pool }

// held reports whether ctx runs inside one of p's jobs.
func (p *Pool) held(ctx context.Context) bool { return ctx.Value(heldKey{p}) != nil }

type priorityKey struct{}

// WithPriority returns ctx under which the Map* jobs and Hold chains
// started wait for a token ahead of those of lower priority (default
// 0). A caller running several drivers at once raises the ones with the
// longest dependent chains, so their later stages are not left to run
// alone at the end.
func WithPriority(ctx context.Context, prio int) context.Context {
	return context.WithValue(ctx, priorityKey{}, prio)
}

// acquire takes a token, or gives up with ctx's error once ctx is done.
func (p *Pool) acquire(ctx context.Context) error {
	prio, _ := ctx.Value(priorityKey{}).(int)
	p.mu.Lock()
	if p.busy < p.workers {
		p.busy++
		p.mu.Unlock()
		return nil
	}
	w := &waiter{prio: prio, ready: make(chan struct{})}
	i := 0
	for i < len(p.waiting) && p.waiting[i].prio >= prio {
		i++
	}
	p.waiting = slices.Insert(p.waiting, i, w)
	p.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.Index(p.waiting, w); i >= 0 {
		p.waiting = slices.Delete(p.waiting, i, i+1)
	} else {
		p.handOff() // handed a token as ctx ended: pass it on
	}
	return ctx.Err()
}

func (p *Pool) release() {
	p.mu.Lock()
	p.handOff()
	p.mu.Unlock()
}

// handOff gives a freed token to the first waiter, or returns it to
// the pool. p.mu is held.
func (p *Pool) handOff() {
	if len(p.waiting) == 0 {
		p.busy--
		return
	}
	close(p.waiting[0].ready)
	p.waiting = slices.Delete(p.waiting, 0, 1)
}

// defaultPool serves Map calls that do not carry their own pool. It is
// swapped atomically so the -workers CLI flag can reconfigure it before
// the drivers start.
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(NewPool(0)) }

// SetWorkers reconfigures the default pool; n <= 0 restores the
// GOMAXPROCS default. Call it before the drivers start: work already
// running keeps the tokens of the pool it started on.
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
// every job, each holding one of p's tokens, and the results come back
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
	run := func(ctx context.Context, i int) {
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

	if p.held(ctx) {
		// Nested inside one of p's jobs: run serially on its token.
		for i := range jobs {
			run(ctx, i)
		}
		return out
	}
	jobCtx := context.WithValue(ctx, heldKey{p}, true)
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			if err := p.acquire(ctx); err != nil {
				out[i].Err = err
				continue
			}
			run(jobCtx, i)
			p.release()
		}
	}
	// The caller is one of the workers.
	var wg sync.WaitGroup
	for range min(p.Workers(), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	return out
}

// Hold runs fn, a serial chain of simulations such as a design-space
// walk, as one job on the default pool (see MapCtx): the chain holds
// one token for as long as it runs, so it counts against -workers like
// any Map job, and Map calls inside fn run on that token. A ctx
// cancelled before fn gets its token returns ctx's error without
// running fn.
func Hold(ctx context.Context, fn func(context.Context) error) error {
	_, err := MapCtx(ctx, []struct{}{{}}, func(ctx context.Context, _ struct{}) (struct{}, error) {
		return struct{}{}, fn(ctx)
	})
	return err
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
