package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	out, err := MapPoolCtx(context.Background(), NewPool(8), jobs, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // shuffle completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := MapPoolCtx(context.Background(), nil, nil, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Map = (%v, %v)", out, err)
	}
	out, err = MapPoolCtx(context.Background(), nil, []int{41}, func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("single Map = (%v, %v)", out, err)
	}
}

func TestMapRespectsWorkerCap(t *testing.T) {
	const cap = 3
	var live, peak atomic.Int64
	jobs := make([]int, 24)
	_, err := MapPoolCtx(context.Background(), NewPool(cap), jobs, func(context.Context, int) (struct{}, error) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		live.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > cap {
		t.Fatalf("observed %d concurrent jobs, cap is %d", p, cap)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := MapPoolCtx(context.Background(), NewPool(4), jobs, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Error("want error from panicked job")
		} else if !strings.Contains(err.Error(), "job 3 panicked: boom") {
			t.Errorf("error %q does not name the panicked job", err)
		}
		// Healthy jobs still completed.
		if out[7] != 7 {
			t.Errorf("out[7] = %d, want 7", out[7])
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map deadlocked after a job panic")
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := errors.New("job failed")
	_, err := MapPoolCtx(context.Background(), NewPool(8), jobs, func(_ context.Context, i int) (int, error) {
		if i >= 2 {
			return 0, fmt.Errorf("%w: %d", wantErr, i)
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
	// The lowest-indexed failure is the one the serial loop would hit.
	if got := err.Error(); !strings.HasSuffix(got, ": 2") {
		t.Fatalf("err = %q, want the job-2 error", got)
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	if got := Workers(); got != 2 {
		t.Fatalf("Workers() = %d after SetWorkers(2)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset", got)
	}
}

func TestMemoHitMissCounters(t *testing.T) {
	m := NewMemo[int]()
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 7, nil }
	for i := 0; i < 5; i++ {
		v, err := m.Do("k", compute)
		if v != 7 || err != nil {
			t.Fatalf("Do = (%d, %v)", v, err)
		}
	}
	if _, err := m.Do("other", compute); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
	hits, misses := m.Stats()
	if hits != 4 || misses != 2 {
		t.Fatalf("Stats = (%d hits, %d misses), want (4, 2)", hits, misses)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Reset()
	hits, misses = m.Stats()
	if hits != 0 || misses != 0 || m.Len() != 0 {
		t.Fatalf("after Reset: hits=%d misses=%d len=%d", hits, misses, m.Len())
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 11, nil
			})
			if v != 11 || err != nil {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls.Load())
	}
}

func TestMemoPanicDoesNotDeadlockWaiters(t *testing.T) {
	m := NewMemo[int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err1 := m.Do("k", func() (int, error) { panic("memo boom") })
		if err1 == nil || !strings.Contains(err1.Error(), "memo boom") {
			t.Errorf("first Do err = %v", err1)
		}
		// The error is memoised; a waiter/revisitor sees it, not a hang.
		_, err2 := m.Do("k", func() (int, error) { return 1, nil })
		if err2 == nil {
			t.Error("second Do should surface the memoised panic error")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("memo deadlocked after a panic")
	}
}

func TestResetAllMemos(t *testing.T) {
	a, b := NewMemo[int](), NewMemo[string]()
	if _, err := a.Do("x", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Do("y", func() (string, error) { return "s", nil }); err != nil {
		t.Fatal(err)
	}
	ResetAllMemos()
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("ResetAllMemos left %d + %d entries", a.Len(), b.Len())
	}
}

func TestKeyOfDistinguishesInputs(t *testing.T) {
	type cfg struct {
		A int
		B float64
	}
	k1 := KeyOf("sim", cfg{A: 1, B: 2.5}, uint64(100))
	k2 := KeyOf("sim", cfg{A: 1, B: 2.5}, uint64(100))
	if k1 != k2 {
		t.Fatal("equal inputs produced different keys")
	}
	for _, other := range []string{
		KeyOf("sim", cfg{A: 2, B: 2.5}, uint64(100)),
		KeyOf("sim", cfg{A: 1, B: 2.5}, uint64(101)),
		KeyOf("other", cfg{A: 1, B: 2.5}, uint64(100)),
		KeyOf("sim", cfg{A: 1, B: 2.5}),
	} {
		if other == k1 {
			t.Fatalf("differing inputs collided: %q", k1)
		}
	}
}
