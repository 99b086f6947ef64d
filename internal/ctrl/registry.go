package ctrl

// The run registry and scheduler: runs queue at submit, start when both
// the global concurrency budget and the submitting tenant's budget have
// room, and publish their timelines through their Hub while they
// execute. One mutex guards all registry state including the obs
// registry the ctrl.* metrics are published into from that state at
// scrape time, so the run table is the only count of runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/obs"
	"lpm/internal/parallel"
)

// Runner executes one run, publishing its series header, windows and
// metrics snapshots to hub; the registry marks the hub done. It returns
// the run's final report document (lpm-report/v2 JSON) or an error.
// SimRunner is the production implementation; tests substitute stubs.
type Runner interface {
	Run(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error)
}

// Config parameterises a Registry.
type Config struct {
	// MaxConcurrent bounds runs executing at once across all tenants
	// (0 = parallel.Workers(), the simulation worker budget).
	MaxConcurrent int
	// TenantBudget bounds runs executing at once per tenant (0 = 2).
	TenantBudget int
	// Runner executes runs; nil defaults to SimRunner.
	Runner Runner
	// Log receives structured scheduler diagnostics (nil discards).
	Log *slog.Logger
}

// run is the registry's record of one submission.
type run struct {
	id     string
	spec   RunSpec
	state  RunState
	errMsg string

	hub    *Hub
	cancel context.CancelFunc
	result json.RawMessage

	submitted, started, finished time.Time
}

// Registry owns the run table and the scheduler.
type Registry struct {
	cfg Config
	ctx context.Context

	mu        sync.Mutex
	runs      map[string]*run
	order     []string
	running   int
	pending   int
	perTenant map[string]int
	nextID    int
	rejected  uint64 // submissions refused at validation
	obs       *obs.Registry
	wg        sync.WaitGroup
}

// NewRegistry builds a registry whose runs execute under ctx: cancel it
// (SIGTERM via resilience.WithSignals) and every running simulation
// drains through its own context.
func NewRegistry(ctx context.Context, cfg Config) *Registry {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = parallel.Workers()
	}
	if cfg.TenantBudget <= 0 {
		cfg.TenantBudget = 2
	}
	if cfg.Runner == nil {
		cfg.Runner = SimRunner{}
	}
	return &Registry{
		cfg:       cfg,
		ctx:       ctx,
		runs:      make(map[string]*run),
		perTenant: make(map[string]int),
		obs:       obs.NewRegistry(),
	}
}

// log returns the registry's structured logger.
func (g *Registry) log() *slog.Logger { return cliutil.LoggerOrDiscard(g.cfg.Log) }

// Submit validates spec, queues the run, and starts it immediately if
// budgets allow. The returned status is the run's state at return.
func (g *Registry) Submit(spec RunSpec) (RunStatus, error) {
	if err := spec.Normalize(); err != nil {
		g.mu.Lock()
		g.rejected++
		g.mu.Unlock()
		return RunStatus{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	r := &run{
		id:        fmt.Sprintf("r-%d", g.nextID),
		spec:      spec,
		state:     StatePending,
		hub:       NewHub(),
		submitted: time.Now(),
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	g.pending++
	g.log().Info("ctrl: run submitted",
		"run", r.id, "tenant", spec.Tenant, "workload", spec.Workload)
	g.scheduleLocked()
	return g.statusLocked(r), nil
}

// scheduleLocked starts pending runs while budgets allow; call with
// g.mu held after any state change that could free a slot.
func (g *Registry) scheduleLocked() {
	for _, id := range g.order {
		if g.running >= g.cfg.MaxConcurrent {
			break
		}
		r := g.runs[id]
		if r.state != StatePending || g.perTenant[r.spec.Tenant] >= g.cfg.TenantBudget {
			continue
		}
		g.startLocked(r)
	}
}

// startLocked transitions r to running and launches its goroutine.
func (g *Registry) startLocked(r *run) {
	rctx, cancel := context.WithCancel(g.ctx)
	r.cancel = cancel
	r.state = StateRunning
	r.started = time.Now()
	g.pending--
	g.running++
	g.perTenant[r.spec.Tenant]++
	g.log().Info("ctrl: run started", "run", r.id, "tenant", r.spec.Tenant)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		result, err := g.cfg.Runner.Run(rctx, r.spec, r.hub)
		// Read the context before cancelling it: interrupted-ness is what
		// separates a cancelled run from a failed one.
		interrupted := rctx.Err() != nil
		cancel()
		g.finish(r, result, err, interrupted)
	}()
}

// finish records a run's outcome, reschedules, and only then publishes
// the end of the stream: a client that reads the run's status on the
// heels of the SSE `done` event must find it terminal.
func (g *Registry) finish(r *run, result json.RawMessage, err error, interrupted bool) {
	g.mu.Lock()
	r.finished = time.Now()
	r.result = result
	switch {
	case err == nil:
		r.state = StateDone
	case interrupted:
		r.state = StateCancelled
		r.errMsg = err.Error()
	default:
		r.state = StateFailed
		r.errMsg = err.Error()
	}
	g.running--
	g.perTenant[r.spec.Tenant]--
	g.log().Info("ctrl: run finished",
		"run", r.id, "tenant", r.spec.Tenant, "state", string(r.state), "error", r.errMsg)
	g.scheduleLocked()
	g.mu.Unlock()
	r.hub.Done()
}

// Cancel stops a run: pending runs resolve immediately, running runs
// get their context cancelled and resolve when the simulation drains.
func (g *Registry) Cancel(id string) (RunStatus, error) {
	g.mu.Lock()
	r, ok := g.runs[id]
	if !ok {
		g.mu.Unlock()
		return RunStatus{}, fmt.Errorf("ctrl: no run %q", id)
	}
	switch r.state {
	case StatePending:
		r.state = StateCancelled
		r.errMsg = "cancelled before start"
		r.finished = time.Now()
		g.pending--
		hub := r.hub
		g.scheduleLocked()
		g.mu.Unlock()
		hub.Done()
		g.mu.Lock()
	case StateRunning:
		r.cancel()
	}
	st := g.statusLocked(r)
	g.mu.Unlock()
	return st, nil
}

// Get returns one run's status.
func (g *Registry) Get(id string) (RunStatus, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return RunStatus{}, fmt.Errorf("ctrl: no run %q", id)
	}
	return g.statusLocked(r), nil
}

// List returns every run in submission order.
func (g *Registry) List() RunList {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := RunList{API: APIVersion, Runs: make([]RunStatus, 0, len(g.order))}
	for _, id := range g.order {
		l.Runs = append(l.Runs, g.statusLocked(g.runs[id]))
	}
	return l
}

// statusLocked renders r as API status; call with g.mu held.
func (g *Registry) statusLocked(r *run) RunStatus {
	return RunStatus{
		API:       APIVersion,
		ID:        r.id,
		State:     r.state,
		Spec:      r.spec,
		Error:     r.errMsg,
		Windows:   r.hub.Len(),
		Submitted: r.submitted,
		Started:   r.started,
		Finished:  r.finished,
	}
}

// handles returns a run's hub for the HTTP layer.
func (g *Registry) handles(id string) (*Hub, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return nil, false
	}
	return r.hub, true
}

// result returns a finished run's report document.
func (g *Registry) resultDoc(id string) (json.RawMessage, RunState, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return nil, "", false
	}
	return r.result, r.state, true
}

// Drain waits for every launched run goroutine to exit — the shutdown
// path after the serve context cancels.
func (g *Registry) Drain() { g.wg.Wait() }

// runExpo is one run's labeled snapshot for the fleet endpoint.
type runExpo struct {
	id, tenant string
	snap       *obs.Snapshot
}

// fleetSnapshots captures, under one lock acquisition, the control
// plane's own snapshot and the identity of every run; per-run
// snapshots are then pulled outside g.mu (each Hub carries its own lock).
// The ctrl.* series are published here and nowhere else, from the run
// table and its hubs: the registry's state is the only count.
func (g *Registry) fleetSnapshots() (*obs.Snapshot, []runExpo) {
	g.mu.Lock()
	rs := make([]runExpo, 0, len(g.order))
	hubs := make([]*Hub, 0, len(g.order))
	var done, failed, cancelled, dropped uint64
	subs := 0
	for _, id := range g.order {
		r := g.runs[id]
		rs = append(rs, runExpo{id: r.id, tenant: r.spec.Tenant})
		hubs = append(hubs, r.hub)
		switch r.state {
		case StateDone:
			done++
		case StateFailed:
			failed++
		case StateCancelled:
			cancelled++
		}
		subs += r.hub.subscribers()
		dropped += r.hub.dropped.Load()
	}
	g.obs.Gauge("ctrl.runs_pending").Set(float64(g.pending))
	g.obs.Gauge("ctrl.runs_running").Set(float64(g.running))
	g.obs.Gauge("ctrl.sse_subscribers").Set(float64(subs))
	g.obs.Counter("ctrl.runs_submitted").Set(uint64(g.nextID))
	g.obs.Counter("ctrl.runs_done").Set(done)
	g.obs.Counter("ctrl.runs_failed").Set(failed)
	g.obs.Counter("ctrl.runs_cancelled").Set(cancelled)
	g.obs.Counter("ctrl.runs_rejected").Set(g.rejected)
	g.obs.Counter("ctrl.sse_events_dropped").Set(dropped)
	ctrlSnap := g.obs.Snapshot()
	g.mu.Unlock()
	for i := range rs {
		rs[i].snap = hubs[i].Snapshot()
	}
	return ctrlSnap, rs
}
