package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// liveGauge counts jobs running at once and remembers the peak.
type liveGauge struct{ live, peak atomic.Int64 }

func (g *liveGauge) enter() {
	n := g.live.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *liveGauge) leave() { g.live.Add(-1) }

// The budget is the pool's, not each call's: two batches and a held
// chain running at once on a pool of 3 never have more than 3 jobs live
// together.
func TestBudgetSharedAcrossConcurrentCalls(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	var g liveGauge
	job := func(context.Context, int) (int, error) {
		g.enter()
		defer g.leave()
		time.Sleep(time.Millisecond)
		return 0, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := MapCtx(context.Background(), make([]int, 24), job)
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- Hold(context.Background(), func(ctx context.Context) error {
			g.enter()
			defer g.leave()
			for range 8 {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := g.peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent jobs across the calls, budget is 3", p)
	}
}

// A Map or Hold reached from inside a job runs on that job's token: at
// one worker, where a nested call waiting for a fresh token would wait
// forever, the nest still returns, results in order, and an error-valued
// panic in a nested job keeps its %w chain.
func TestBudgetNestingDoesNotDeadlock(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	sentinel := errors.New("nested cell failed")
	done := make(chan error, 1)
	go func() {
		done <- Hold(context.Background(), func(ctx context.Context) error {
			out, err := MapCtx(ctx, []int{1, 2, 3}, func(ctx context.Context, i int) (int, error) {
				inner := MapResults(ctx, []int{0, 1}, func(_ context.Context, j int) (int, error) {
					if i == 2 && j == 1 {
						panic(fmt.Errorf("wrapped: %w", sentinel))
					}
					return 10*i + j, nil
				})
				if i == 2 && !errors.Is(inner[1].Err, sentinel) {
					return 0, fmt.Errorf("nested panic lost its chain: %v", inner[1].Err)
				}
				var held int
				err := Hold(ctx, func(context.Context) error { held = inner[0].Val; return nil })
				return held, err
			})
			if err != nil {
				return err
			}
			if out[0] != 10 || out[1] != 20 || out[2] != 30 {
				return fmt.Errorf("nested results = %v, want [10 20 30]", out)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map/Hold deadlocked at one worker")
	}
}

// Cancellation reaches a caller waiting for a token: Hold returns ctx's
// error without running its chain, and a batch's jobs that never got a
// token are skipped with it.
func TestBudgetWaitersObserveCancellation(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	holding, release := make(chan struct{}), make(chan struct{})
	go func() {
		_ = Hold(context.Background(), func(context.Context) error {
			close(holding)
			<-release
			return nil
		})
	}()
	<-holding
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ran := false
	if err := Hold(ctx, func(context.Context) error { ran = true; return nil }); !errors.Is(err, context.DeadlineExceeded) || ran {
		t.Fatalf("Hold while the only token is taken = %v (ran %v), want DeadlineExceeded without running", err, ran)
	}
	for i, r := range MapResults(ctx, []int{0, 1, 2}, func(context.Context, int) (int, error) { return 1, nil }) {
		if r.Ran || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("job %d: %+v, want skipped with DeadlineExceeded", i, r)
		}
	}
}

// A freed token goes to the highest-priority waiter, the earliest of
// them on a tie, whatever order they queued in.
func TestBudgetGrantsByPriority(t *testing.T) {
	p := NewPool(1)
	if err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for i, w := range []struct {
		name string
		prio int
	}{{"low", 0}, {"high", 2}, {"mid-first", 1}, {"mid-second", 1}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.acquire(WithPriority(context.Background(), w.prio)); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, w.name)
			mu.Unlock()
			p.release()
		}()
		// Queue the waiters one at a time, so arrival order is known.
		for queued := 0; queued != i+1; {
			time.Sleep(time.Millisecond)
			p.mu.Lock()
			queued = len(p.waiting)
			p.mu.Unlock()
		}
	}
	p.release()
	wg.Wait()
	if want := []string{"high", "mid-first", "mid-second", "low"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("tokens granted in order %v, want %v", order, want)
	}
}
