package fabric

// LocalFabric is the in-process multi-worker simulation harness: a real
// coordinator on loopback TCP plus N workers running as goroutines in
// the same process. Every frame crosses a real socket, so the harness
// exercises the actual wire path — framing, budgets, re-issue — while
// staying cheap enough for `go test -race` and letting chaos tests arm
// process-global failpoints that both sides see.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// localWorker tracks one harness worker goroutine.
type localWorker struct {
	name   string
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// LocalFabric couples a coordinator, its in-process workers, and the
// process-global activation that routes this process's simulations
// through it.
type LocalFabric struct {
	// C is the live coordinator, exposed for Stats and WaitWorkers.
	C *Coordinator

	restore func()
	ctx     context.Context // every worker's parent; Close cancels it
	cancel  context.CancelFunc
	mu      sync.Mutex
	workers []*localWorker
	nextID  int
}

// StartLocal starts a loopback coordinator with n workers, activates it
// as the process-wide fabric, and waits up to 30 s until all n workers
// have joined. The workers run until ctx is done or Close, which undoes
// everything.
func StartLocal(ctx context.Context, n int, opts Options, wopts WorkerOptions) (*LocalFabric, error) {
	c, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	lf := &LocalFabric{C: c, restore: Activate(c)}
	lf.ctx, lf.cancel = context.WithCancel(ctx)
	for i := 0; i < n; i++ {
		lf.AddWorker(wopts)
	}
	join, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := c.WaitWorkers(join, n); err != nil {
		_ = lf.Close()
		return nil, fmt.Errorf("fabric: starting %d local workers: %w", n, err)
	}
	return lf, nil
}

// AddWorker starts one more worker goroutine (join-mid-run in tests)
// and returns its name. The join is asynchronous; use C.WaitWorkers to
// block until it lands.
func (lf *LocalFabric) AddWorker(wopts WorkerOptions) string {
	lf.mu.Lock()
	lf.nextID++
	name := fmt.Sprintf("local-%d", lf.nextID)
	if wopts.Name != "" {
		name = fmt.Sprintf("%s-%d", wopts.Name, lf.nextID)
	}
	wopts.Name = name
	ctx, cancel := context.WithCancel(lf.ctx)
	lw := &localWorker{name: name, cancel: cancel, done: make(chan struct{})}
	lf.workers = append(lf.workers, lw)
	lf.mu.Unlock()
	go func() {
		defer close(lw.done)
		lw.err = RunWorker(ctx, lf.C.Addr(), wopts)
	}()
	return name
}

// StopWorker cancels the named worker and waits for it to exit —
// leave-mid-run in tests. From the coordinator's side this is
// indistinguishable from a crash: the connection just drops.
func (lf *LocalFabric) StopWorker(name string) error {
	lf.mu.Lock()
	var lw *localWorker
	for _, w := range lf.workers {
		if w.name == name {
			lw = w
			break
		}
	}
	lf.mu.Unlock()
	if lw == nil {
		return fmt.Errorf("fabric: no local worker named %q", name)
	}
	lw.cancel()
	<-lw.done
	return nil
}

// Close deactivates the fabric, shuts the coordinator down, and reaps
// every worker goroutine, returning the first worker error (cancelled
// and cleanly-disconnected workers return nil).
func (lf *LocalFabric) Close() error {
	lf.restore()
	_ = lf.C.Close()
	lf.cancel()
	lf.mu.Lock()
	workers := append([]*localWorker(nil), lf.workers...)
	lf.mu.Unlock()
	var firstErr error
	for _, lw := range workers {
		<-lw.done
		if lw.err != nil && firstErr == nil && !errors.Is(lw.err, context.Canceled) {
			firstErr = fmt.Errorf("fabric: local worker %q: %w", lw.name, lw.err)
		}
	}
	return firstErr
}
