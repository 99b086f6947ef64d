package fabric

// The coordinator side of the fabric: owns the granule queue, the
// shared result cache, and every connected worker. All state lives
// under one mutex; the only goroutines are the TCP accept loop, one
// reader and one writer per connection, and the tick loop.
//
// Scheduling invariants:
//
//   - a granule sits in exactly one place: the pending queue (id
//     order) or ≥1 workers' in-flight sets — never both;
//   - the pending queue is popped lowest-id-first among *ready*
//     granules (a transient-retry backoff delays readiness), so
//     earlier submissions are never starved by later ones;
//   - a dead worker's granules are re-queued (unless another holder
//     survives) and re-issued;
//   - one per-tick placement pass asks fleet.ReplicaPolicy how many
//     live copies each held granule should have (cross-validation,
//     suspect hedge, straggler hedge) and issues the shortfall to
//     eligible workers; the first result wins and later duplicates are
//     ignored, which is sound because executors are pure functions of
//     the spec.
//
// The resilience layer (internal/resilience/fleet) hangs off the same
// mutex: heartbeat health classification runs on the tick loop's
// logical clock, the quarantine breaker gates handshakes, transient
// remote failures are re-queued on a seeded backoff schedule, and —
// when a journal is configured — every scheduling decision is fsynced
// before it takes effect, so a kill -9 of this process resumes from
// the journal plus the driver's result checkpoint.
//
// None of this affects result *values* or merge order: the driver
// consumes results through Submit in its own deterministic order, so
// scheduling is free to be opportunistic.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/obs"
	"lpm/internal/resilience/fleet"
)

// ErrCoordinatorClosed is returned by Submit when the coordinator shuts
// down with the granule still unresolved.
var ErrCoordinatorClosed = errors.New("fabric: coordinator closed")

// retryBudget is how many times a granule that failed with a *transient*
// remote error is re-queued before the failure is accepted.
const retryBudget = 3

// Options configure a coordinator.
type Options struct {
	// StraggleAfter is how long a granule may be held without a result
	// before it is duplicated onto an idle worker. 0 means the 30s
	// default; negative disables straggler re-issue.
	StraggleAfter time.Duration
	// TickEvery is the cadence of the coordinator's logical clock; all
	// health, backoff, and probation deadlines are measured in these
	// ticks. 0 means the 25ms default.
	TickEvery time.Duration
	// Heartbeat is the ping cadence assigned to workers in the welcome
	// frame. 0 means the 250ms default; negative disables heartbeats
	// (and with them health classification).
	Heartbeat time.Duration
	// Health classifies worker silence in ticks; the zero value means
	// the default (suspect after 80 ticks, dead after 400: 2s and 10s at
	// the default tick).
	Health fleet.HealthPolicy
	// ValidateEvery samples cross-validation: every Kth granule (by id)
	// is executed redundantly on two workers and the answers compared;
	// divergence re-runs on a third worker and quarantines the outlier.
	// 0 disables validation; 1 validates every granule.
	ValidateEvery int
	// JournalPath, when set, appends every scheduling decision to an
	// LPMCKPT1-framed journal at this path (fsynced per record). A
	// pre-existing journal is replayed first: quarantine decisions and
	// per-granule retry charges carry across a coordinator restart.
	JournalPath string
	// Log receives structured coordinator diagnostics (worker joins,
	// deaths, re-issues) with worker/granule attrs; nil discards them.
	Log *slog.Logger
	// Obs, when set, receives the coordinator's fabric telemetry —
	// queue depth, per-worker in-flight, re-queue and straggler churn,
	// cache hit rate — published from Stats by ObsSnapshot.
	Obs *obs.Registry
}

// Stats is a snapshot of coordinator counters for tests and the CLIs.
type Stats struct {
	Workers     int // currently connected workers
	Joined      int // handshakes accepted over the coordinator's lifetime
	Submitted   int // distinct granules submitted
	Completed   int // granules resolved
	Requeued    int // granules re-queued after a worker died holding them
	Duplicated  int // straggler/suspect duplicates issued
	CacheHits   int // Submit calls answered by an already-resolved granule
	Heartbeats  int // ping frames received
	Suspects    int // healthy→suspect transitions
	Retried     int // transient-failure re-queues charged to retry budgets
	Quarantined int // workers tripped into quarantine
	Readmitted  int // workers readmitted after probation
	Validated   int // cross-validated granules decided
	Divergent   int // cross-validations that caught disagreeing answers
	Died        int // worker sessions torn down
	LateResults int // results ignored because the first copy already won
}

// vote is one worker's answer to a cross-validated granule.
type vote struct {
	worker    string
	value     json.RawMessage
	errText   string
	transient bool
}

// digest is the comparison key for a vote: byte-equal values (or equal
// error text) agree.
func (v vote) digest() string { return string(v.value) + "\x00" + v.errText }

// granule is one unit of work: a (kind, key, spec) triple plus its
// resolution. done closes exactly once, after which value/errText are
// immutable.
type granule struct {
	id   uint64
	kind string
	key  string
	spec json.RawMessage

	done      chan struct{}
	value     json.RawMessage
	errText   string
	transient bool // errText's classification, carried into Submit's error

	queued     bool      // sitting in Coordinator.pending
	holders    int       // workers currently holding it in-flight
	issuedAt   time.Time // last issuance, for the latency histogram
	issuedTick uint64    // last issuance on the logical clock, for straggler aging
	readyTick  uint64    // dispatch not before this tick (transient-retry backoff)
	retries    int       // transient failures charged so far

	votesWanted int    // cross-validation copies required (0/1 = none)
	votes       []vote // answers received, in arrival order
}

// resolved reports whether the granule has a result.
func (g *granule) resolved() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// voted reports whether the named worker already answered.
func (g *granule) voted(name string) bool {
	for _, v := range g.votes {
		if v.worker == name {
			return true
		}
	}
	return false
}

// remoteWorker is the coordinator's view of one connected worker.
type remoteWorker struct {
	name     string
	conn     net.Conn
	slots    int // worker-declared execution concurrency, 1..maxSlots: its supply rate
	inflight map[uint64]*granule
	outbox   chan Msg
	dead     bool
	suspect  uint64 // tick the worker turned suspect; 0 while healthy
	busy     int    // executing granules, from the last ping
	rtt      int64  // last reported ping round trip, microseconds
}

// Coordinator accepts workers and brokers granules between Submit
// callers and the worker fleet.
type Coordinator struct {
	opts     Options
	ln       net.Listener
	retry    fleet.RetryPolicy
	replicas fleet.ReplicaPolicy
	dispatch fleet.DispatchPolicy
	latency  *obs.Histogram // issue-to-result wall clock; nil without Options.Obs

	mu      sync.Mutex
	tick    uint64
	nextID  uint64
	byKey   map[string]*granule
	byID    map[uint64]*granule
	order   []*granule // submission order, pruned of resolved granules each tick; the placement pass walks this, never a map
	pending []*granule // dispatch queue, ascending id
	workers []*remoteWorker
	loads   []fleet.WorkerLoad // pickLocked's scratch view of workers
	stats   Stats
	health  *fleet.HealthTracker
	quar    *fleet.Quarantine
	journal *fleet.Journal
	resumed *fleet.JournalState // state recovered from a pre-existing journal

	closed    chan struct{}
	closeOnce sync.Once
	loops     sync.WaitGroup
}

// Listen starts a coordinator on addr (e.g. "127.0.0.1:0") and begins
// accepting workers immediately. Close releases everything.
func Listen(addr string, opts Options) (*Coordinator, error) {
	if opts.StraggleAfter == 0 {
		opts.StraggleAfter = 30 * time.Second
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 25 * time.Millisecond
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 250 * time.Millisecond
	}
	if opts.Health == (fleet.HealthPolicy{}) {
		// ~2s to suspicion, ~10s to eviction at the default 25ms tick.
		// Deliberately lenient: a worker grinding a multi-second granule
		// on a saturated host misses several ping slots without being
		// hung, and suspicion already hedges with duplicates. A truly
		// hung TCP session is still caught in seconds.
		opts.Health = fleet.HealthPolicy{SuspectAfter: 80, DeadAfter: 400}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	c := &Coordinator{
		opts:   opts,
		ln:     ln,
		retry:  fleet.Defaults(0),
		byKey:  make(map[string]*granule),
		byID:   make(map[uint64]*granule),
		health: fleet.NewHealthTracker(opts.Health),
		// Three strikes trip the breaker into a 400-tick (~10s at the
		// default tick) probation.
		quar:   fleet.NewQuarantine(fleet.QuarantinePolicy{TripAfter: 3, Probation: 400}),
		closed: make(chan struct{}),
	}
	c.retry.Cap = 2 * time.Second
	c.latency = opts.Obs.Histogram("fabric.granule_seconds", 0, 30, 120)
	if opts.StraggleAfter > 0 {
		c.replicas.StraggleAfter = ticksFor(opts.StraggleAfter, opts.TickEvery)
	}
	if opts.JournalPath != "" {
		if err := c.openJournal(); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	c.loops.Add(2)
	go c.acceptLoop()
	go c.tickLoop()
	return c, nil
}

// ticksFor converts a wall duration to a whole number of ticks, at
// least 1.
func ticksFor(d, tick time.Duration) uint64 {
	n := uint64(d / tick)
	if n == 0 {
		n = 1
	}
	return n
}

// openJournal replays any pre-existing journal at JournalPath,
// restores quarantine and retry state from it, and opens it for
// appending.
func (c *Coordinator) openJournal() error {
	entries, err := fleet.ReplayJournal(c.opts.JournalPath)
	if err == nil && len(entries) > 0 {
		c.resumed = fleet.RecoverState(entries)
		// Probation restarts from tick 0: the old clock died with the
		// old process, and readmitting a known liar early is worse than
		// making it wait out a fresh window.
		c.quar.Restore(c.resumed.Quarantined, 0)
		c.stats.Quarantined = len(c.resumed.Quarantined)
	}
	j, err := fleet.OpenJournal(c.opts.JournalPath)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	c.journal = j
	return nil
}

// journalLocked appends one entry (no-op without a journal); append
// failures are logged, not fatal — losing the journal degrades resume,
// not the sweep.
func (c *Coordinator) journalLocked(e fleet.Entry) {
	if c.journal == nil {
		return
	}
	e.Tick = c.tick
	if err := c.journal.Append(e); err != nil {
		c.log().Warn("fabric: journal append failed", "op", e.Op, "err", err.Error())
	}
}

// Addr returns the coordinator's bound listen address, for handing to
// workers (and for tests that listen on port 0).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down: the listener closes, every worker
// connection drops, and pending Submit calls fail with
// ErrCoordinatorClosed. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		_ = c.ln.Close()
		c.mu.Lock()
		workers := append([]*remoteWorker(nil), c.workers...)
		c.mu.Unlock()
		for _, w := range workers {
			c.workerGone(w, errors.New("coordinator closing"))
		}
	})
	c.loops.Wait()
	c.mu.Lock()
	j := c.journal
	c.journal = nil
	c.mu.Unlock()
	if j != nil {
		_ = j.Close()
	}
	return nil
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WorkerHealth is one worker's row in a fleet snapshot.
type WorkerHealth struct {
	Name     string `json:"name"`
	Proto    int    `json:"proto"`
	State    string `json:"state"`
	InFlight int    `json:"inflight"`
	Busy     int    `json:"busy"`
	RTTMicro int64  `json:"rtt_micros"`
	Strikes  int    `json:"strikes"`
}

// FleetSnapshot is the JSON shape the control plane serves for the
// fleet's health: per-worker state plus the quarantine roster and the
// coordinator counters.
type FleetSnapshot struct {
	Tick        uint64         `json:"tick"`
	Workers     []WorkerHealth `json:"workers"`
	Quarantined []string       `json:"quarantined"`
	Pending     int            `json:"pending"`
	Stats       Stats          `json:"stats"`
}

// FleetStats captures the fleet's health under the coordinator mutex.
func (c *Coordinator) FleetStats() FleetSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := FleetSnapshot{
		Tick:        c.tick,
		Quarantined: c.quar.Snapshot(),
		Pending:     len(c.pending),
		Stats:       c.stats,
	}
	sort.Strings(snap.Quarantined)
	for _, w := range c.workers {
		snap.Workers = append(snap.Workers, WorkerHealth{
			Name:     w.name,
			Proto:    ProtoVersion,
			State:    c.healthStateLocked(w).String(),
			InFlight: len(w.inflight),
			Busy:     w.busy,
			RTTMicro: w.rtt,
			Strikes:  c.quar.Strikes(w.name),
		})
	}
	return snap
}

// FleetStatsJSON renders FleetStats as JSON — the decoupled shape the
// control plane's /api/v1/fleet endpoint serves (ctrl.FleetSource).
func (c *Coordinator) FleetStatsJSON() json.RawMessage {
	b, err := json.Marshal(c.FleetStats())
	if err != nil {
		return json.RawMessage(`{"error":"fleet snapshot marshal failed"}`)
	}
	return b
}

// healthStateLocked classifies w at the current tick; with heartbeats
// off every worker is healthy.
func (c *Coordinator) healthStateLocked(w *remoteWorker) fleet.HealthState {
	if c.opts.Heartbeat < 0 {
		return fleet.Healthy
	}
	return c.health.State(w.name, c.tick)
}

// WaitWorkers blocks until at least n workers are connected, ctx
// cancels, or the coordinator closes.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		have := c.stats.Workers
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: waiting for %d workers (have %d): %w", n, have, ctx.Err())
		case <-c.closed:
			return ErrCoordinatorClosed
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Submit resolves one granule: an existing result (or in-flight
// computation) under the same key is shared single-flight, otherwise
// the granule is queued for dispatch. Blocks until the granule
// resolves, ctx cancels, or the coordinator closes. Remote failures
// come back as *fleet.RemoteError carrying the worker-side error text
// verbatim — a sharded run's error cells match a serial run's
// byte-for-byte — plus the transience classification for retry-aware
// callers.
func (c *Coordinator) Submit(ctx context.Context, kind, key string, spec json.RawMessage) (json.RawMessage, error) {
	c.mu.Lock()
	g, ok := c.byKey[key]
	if !ok {
		g = &granule{
			id:   c.nextID,
			kind: kind,
			key:  key,
			spec: spec,
			done: make(chan struct{}),
		}
		c.nextID++
		if k := c.opts.ValidateEvery; k > 0 && g.id%uint64(k) == 0 {
			g.votesWanted = 2
		}
		if c.resumed != nil {
			// Carry the retry charges a predecessor coordinator already
			// spent on this granule.
			g.retries = c.resumed.Retries[fleet.GranuleKey(kind, key)]
		}
		c.byKey[key] = g
		c.byID[g.id] = g
		c.order = append(c.order, g)
		c.stats.Submitted++
		c.journalLocked(fleet.Entry{Op: fleet.OpSubmit, Kind: kind, Key: key})
		c.enqueueLocked(g)
		c.dispatchLocked()
	} else if g.resolved() {
		c.stats.CacheHits++
	}
	c.mu.Unlock()

	select {
	case <-g.done:
		if g.errText != "" {
			return nil, &fleet.RemoteError{Text: g.errText, Transient: g.transient}
		}
		return g.value, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrCoordinatorClosed
	}
}

// enqueueLocked inserts g into the pending queue keeping ascending-id
// order, so re-queued granules rejoin at their original priority.
func (c *Coordinator) enqueueLocked(g *granule) {
	g.queued = true
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].id > g.id })
	c.pending = append(c.pending, nil)
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = g
}

// unqueueLocked removes and returns pending[i].
func (c *Coordinator) unqueueLocked(i int) *granule {
	g := c.pending[i]
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	g.queued = false
	return g
}

// dispatchLocked issues ready pending granules (past their backoff),
// lowest id first, each to the worker pickLocked names, while any worker
// has budget left. A granule no free worker may take is passed over, not
// waited on; resolved granules met on the way are dropped.
func (c *Coordinator) dispatchLocked() {
	free := 0
	for _, w := range c.workers {
		free += c.dispatch.Budget(w.slots) - len(w.inflight)
	}
	for i := 0; free > 0 && i < len(c.pending); {
		g := c.pending[i]
		if g.resolved() {
			c.unqueueLocked(i)
		} else if g.readyTick > c.tick {
			i++
		} else if w := c.pickLocked(g, false); w != nil {
			c.issueLocked(w, c.unqueueLocked(i))
			free--
		} else {
			i++
		}
	}
}

// pickLocked asks the dispatch policy which worker takes a copy of g — never
// a holder or a voter, and an extra copy (vote or hedge) never a suspect.
func (c *Coordinator) pickLocked(g *granule, extra bool) *remoteWorker {
	c.loads = c.loads[:0]
	for _, w := range c.workers {
		_, held := w.inflight[g.id]
		ok := c.replicas.Eligible(fleet.WorkerView{Holding: held, Voted: g.voted(w.name), Suspect: extra && w.suspect != 0})
		c.loads = append(c.loads, fleet.WorkerLoad{Slots: w.slots, Held: len(w.inflight), Skip: !ok})
	}
	if i := c.dispatch.Pick(c.loads); i >= 0 {
		return c.workers[i]
	}
	return nil
}

// issueLocked sends g to w and records the holding.
func (c *Coordinator) issueLocked(w *remoteWorker, g *granule) {
	w.inflight[g.id] = g
	g.holders++
	g.issuedAt = time.Now()
	g.issuedTick = c.tick
	c.journalLocked(fleet.Entry{Op: fleet.OpIssue, Kind: g.kind, Key: g.key, Worker: w.name})
	c.sendLocked(w, Msg{Type: MsgWork, ID: g.id, Kind: g.kind, Key: g.key, Spec: g.spec})
}

// sendLocked enqueues m on w's outbox. A full outbox means the worker
// stopped draining its socket; it is dropped like a dead one (from a
// fresh goroutine — workerGone retakes the mutex).
func (c *Coordinator) sendLocked(w *remoteWorker, m Msg) {
	if w.dead {
		return
	}
	select {
	case w.outbox <- m:
	default:
		go c.workerGone(w, errors.New("outbox overflow: worker not draining its connection"))
	}
}

// acceptLoop admits worker connections until the listener closes.
func (c *Coordinator) acceptLoop() {
	defer c.loops.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed (Close) or terminally broken
		}
		go c.serveConn(conn)
	}
}

// serveConn runs the handshake and then the read loop for one worker
// connection. Any protocol violation or read error drops the worker.
func (c *Coordinator) serveConn(conn net.Conn) {
	hello, err := ReadFrame(conn)
	if err != nil || hello.Type != MsgHello {
		c.log().Warn("fabric: rejecting connection: bad handshake",
			"remote", fmt.Sprint(conn.RemoteAddr()), "err", fmt.Sprint(err))
		_ = conn.Close()
		return
	}
	if err := checkHello(hello); err != nil {
		c.log().Warn("fabric: rejecting worker", "worker", hello.Worker, "reason", err.Error())
		_ = conn.Close()
		return
	}

	w := &remoteWorker{
		name:     hello.Worker,
		conn:     conn,
		slots:    hello.Slots,
		inflight: make(map[uint64]*granule),
		outbox:   make(chan Msg, 4*c.dispatch.Budget(hello.Slots)+16),
	}
	pingMS := int64(0)
	if c.opts.Heartbeat > 0 {
		pingMS = c.opts.Heartbeat.Milliseconds()
		if pingMS <= 0 {
			pingMS = 1
		}
	}
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		_ = conn.Close()
		return
	default:
	}
	admitted, readmitted := c.quar.Admit(w.name, c.tick)
	if !admitted {
		strikes := c.quar.Strikes(w.name)
		c.mu.Unlock()
		c.log().Warn("fabric: refusing quarantined worker",
			"worker", w.name, "strikes", strikes)
		_ = conn.Close()
		return
	}
	if readmitted {
		c.stats.Readmitted++
		c.journalLocked(fleet.Entry{Op: fleet.OpReadmit, Worker: w.name})
	}
	// Health, votes and quarantine are keyed by name, so a hello naming a
	// connected worker replaces that session (typically its own stale
	// one, after a redial) instead of sharing its identity.
	for _, old := range c.workers {
		if old.name == w.name {
			c.workerGoneLocked(old, errors.New("replaced by a new session under the same name"))
			break
		}
	}
	c.workers = append(c.workers, w)
	c.stats.Workers++
	c.stats.Joined++
	c.health.Observe(w.name, c.tick)
	c.journalLocked(fleet.Entry{Op: fleet.OpJoin, Worker: w.name})
	go c.writeLoop(w)
	c.sendLocked(w, Msg{Type: MsgWelcome, Proto: ProtoVersion, PingMS: pingMS})
	c.dispatchLocked()
	c.mu.Unlock()
	c.log().Info("fabric: worker joined",
		"worker", w.name, "slots", w.slots,
		"remote", fmt.Sprint(conn.RemoteAddr()))

	for {
		m, err := ReadFrame(conn)
		if err != nil {
			c.workerGone(w, err)
			return
		}
		switch m.Type {
		case MsgResult:
			c.handleResult(w, m)
		case MsgPing:
			c.handlePing(w, m)
		default:
			c.workerGone(w, fmt.Errorf("unexpected %q frame from worker", m.Type))
			return
		}
	}
}

// writeLoop drains w's outbox onto the wire; a write failure drops the
// worker.
func (c *Coordinator) writeLoop(w *remoteWorker) {
	for m := range w.outbox {
		if err := WriteFrame(w.conn, m); err != nil {
			c.workerGone(w, err)
			return
		}
	}
}

// handlePing refreshes w's liveness and telemetry and answers with a
// pong so the worker can detect a wedged session from its side.
func (c *Coordinator) handlePing(w *remoteWorker, m Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.health.Observe(w.name, c.tick)
	if w.suspect != 0 {
		w.suspect = 0
		c.log().Info("fabric: suspect worker recovered", "worker", w.name)
	}
	w.busy = m.Busy
	w.rtt = m.RTT
	c.stats.Heartbeats++
	c.sendLocked(w, Msg{Type: MsgPong, ID: m.ID})
}

// handleResult resolves a granule from a worker result frame. Late
// duplicates (straggler re-issues, results racing a death notice) are
// ignored: the first result wins, and purity makes every duplicate
// identical anyway. Cross-validated granules collect votes instead;
// transient failures inside the retry budget go back on the queue with
// backoff rather than resolving.
func (c *Coordinator) handleResult(w *remoteWorker, m Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.health.Observe(w.name, c.tick)
	g, ok := c.byID[m.ID]
	if !ok {
		return
	}
	if _, held := w.inflight[g.id]; held {
		delete(w.inflight, g.id)
		g.holders--
	}
	if g.resolved() {
		c.stats.LateResults++
		c.dispatchLocked()
		return
	}
	if g.votesWanted > 1 {
		c.handleVoteLocked(w, g, m)
		return
	}
	if m.Error != "" && m.Transient && g.retries < retryBudget {
		c.retryLocked(g, m.Error)
		return
	}
	c.resolveLocked(g, m.Value, m.Error, m.Transient)
}

// retryLocked charges one transient failure against g's budget and
// re-queues it behind the policy's seeded backoff.
func (c *Coordinator) retryLocked(g *granule, cause string) {
	g.retries++
	g.readyTick = c.tick + ticksFor(c.retry.Delay(g.retries-1), c.opts.TickEvery)
	c.stats.Retried++
	c.journalLocked(fleet.Entry{
		Op: fleet.OpRequeue, Kind: g.kind, Key: g.key,
		Retries: g.retries, Detail: "transient: " + cause,
	})
	if !g.queued && g.holders == 0 {
		c.enqueueLocked(g)
	}
	c.log().Warn("fabric: transient granule failure, retrying",
		"granule", g.id, "kind", g.kind, "retry", g.retries, "cause", cause)
	c.dispatchLocked()
}

// resolveLocked closes g with its result, frees it from every holder,
// and re-dispatches.
func (c *Coordinator) resolveLocked(g *granule, value json.RawMessage, errText string, transient bool) {
	g.value = value
	g.errText = errText
	g.transient = transient
	close(g.done)
	c.stats.Completed++
	c.latency.Observe(time.Since(g.issuedAt).Seconds())
	c.journalLocked(fleet.Entry{Op: fleet.OpComplete, Kind: g.kind, Key: g.key})
	for _, w := range c.workers {
		if _, held := w.inflight[g.id]; held {
			delete(w.inflight, g.id)
			g.holders--
		}
	}
	c.dispatchLocked()
}

// handleVoteLocked records one answer to a cross-validated granule and
// decides it once enough votes are in (or no further voter exists).
func (c *Coordinator) handleVoteLocked(w *remoteWorker, g *granule, m Msg) {
	if !g.voted(w.name) {
		g.votes = append(g.votes, vote{
			worker: w.name, value: m.Value, errText: m.Error, transient: m.Transient,
		})
	}
	// Divergence between the first two answers escalates to a third
	// opinion before anyone is accused or anything is decided — this
	// must run before the quorum check, or a 1-vs-1 split would be
	// settled by "accept the first answer" and a lie could win.
	if len(g.votes) == 2 && g.votes[0].digest() != g.votes[1].digest() && g.votesWanted < 3 {
		g.votesWanted = 3
		c.stats.Divergent++
		c.log().Warn("fabric: cross-validation divergence, escalating to a third worker",
			"granule", g.id, "kind", g.kind,
			"voters", g.votes[0].worker+","+g.votes[1].worker)
	}
	if len(g.votes) >= g.votesWanted {
		c.decideVotesLocked(g)
		return
	}
	// Place the next copy now rather than a tick later — or, when no one
	// is left to produce another vote, settle with what we have.
	c.placeLocked(g)
	c.dispatchLocked()
}

// decideVotesLocked settles a cross-validated granule: the largest
// group of byte-identical answers wins, and when a majority exists
// every worker outside it is quarantined — a pure function returned a
// different answer, so the outlier lied (or its link corrupted results
// systematically, which deserves the same treatment).
func (c *Coordinator) decideVotesLocked(g *granule) {
	groups := make(map[string]int)
	for _, v := range g.votes {
		groups[v.digest()]++
	}
	winner := g.votes[0]
	best := 0
	for _, v := range g.votes {
		if n := groups[v.digest()]; n > best {
			best = n
			winner = v
		}
	}
	c.stats.Validated++
	if len(groups) > 1 && best >= 2 {
		for _, v := range g.votes {
			if v.digest() == winner.digest() {
				continue
			}
			if c.quar.QuarantineNow(v.worker, c.tick) {
				c.tripLocked(v.worker, fmt.Sprintf("divergent answer on granule %d (%s)", g.id, g.kind))
			}
		}
	} else if len(groups) > 1 {
		// Every answer differs: no majority to trust, nobody can be
		// blamed. Take the first answer and say so loudly.
		c.log().Warn("fabric: cross-validation inconclusive, accepting first answer",
			"granule", g.id, "kind", g.kind, "answers", len(groups))
	}
	c.resolveLocked(g, winner.value, winner.errText, winner.transient)
}

// tripLocked records that the breaker just tripped for the named
// worker: journals the decision (future handshakes are refused for the
// probation window) and drops the live session if one exists.
func (c *Coordinator) tripLocked(name, reason string) {
	c.stats.Quarantined++
	c.journalLocked(fleet.Entry{Op: fleet.OpQuarantine, Worker: name, Detail: reason})
	c.log().Warn("fabric: worker quarantined", "worker", name, "reason", reason)
	for _, w := range c.workers {
		if w.name == name {
			go c.workerGone(w, fmt.Errorf("quarantined: %s", reason))
		}
	}
}

// workerGone is workerGoneLocked for callers not holding the mutex.
func (c *Coordinator) workerGone(w *remoteWorker, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workerGoneLocked(w, cause)
}

// workerGoneLocked removes a dead worker: closes its connection and
// outbox, re-queues every granule it alone held, and re-dispatches.
// Idempotent.
func (c *Coordinator) workerGoneLocked(w *remoteWorker, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	close(w.outbox)
	_ = w.conn.Close()
	for i, ww := range c.workers {
		if ww == w {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	c.stats.Workers--
	c.stats.Died++
	c.opts.Obs.Gauge("fabric.worker." + promSafe(w.name) + ".inflight").Set(0)
	c.health.Forget(w.name)
	c.journalLocked(fleet.Entry{Op: fleet.OpGone, Worker: w.name, Detail: cause.Error()})
	ids := make([]uint64, 0, len(w.inflight))
	for id := range w.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	requeued := 0
	for _, id := range ids {
		g := w.inflight[id]
		g.holders--
		if g.resolved() || g.holders > 0 || g.queued {
			continue
		}
		c.enqueueLocked(g)
		c.journalLocked(fleet.Entry{
			Op: fleet.OpRequeue, Kind: g.kind, Key: g.key,
			Retries: g.retries, Detail: "holder gone: " + w.name,
		})
		c.stats.Requeued++
		requeued++
	}
	w.inflight = nil
	c.dispatchLocked()
	c.log().Warn("fabric: worker gone",
		"worker", w.name, "cause", fmt.Sprint(cause), "requeued", requeued)
}

// tickLoop advances the coordinator's logical clock and runs every
// deadline-driven duty on it: heartbeat health classification, replica
// placement, and backoff expiry. One loop, one clock, so every deadline
// in the fleet is measured the same way.
func (c *Coordinator) tickLoop() {
	defer c.loops.Done()
	ticker := time.NewTicker(c.opts.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
			c.onTick()
		}
	}
}

// onTick runs one logical-clock step.
func (c *Coordinator) onTick() {
	c.mu.Lock()
	c.tick++
	c.classifyHealthLocked()
	live := c.order[:0]
	for _, g := range c.order {
		if !g.resolved() {
			live = append(live, g)
			c.placeLocked(g)
		}
	}
	c.order = live
	// Backoffs expire on ticks; give newly ready granules a chance.
	c.dispatchLocked()
	c.mu.Unlock()
}

// classifyHealthLocked walks the fleet and acts on heartbeat silence:
// the dead are evicted outright (and struck); suspects are only marked —
// the placement pass hedges their sole-held granules.
func (c *Coordinator) classifyHealthLocked() {
	if c.opts.Heartbeat <= 0 {
		return
	}
	for _, w := range c.workers {
		switch c.health.State(w.name, c.tick) {
		case fleet.Dead:
			go c.workerGone(w, fmt.Errorf("heartbeat: no frame for %d ticks", c.opts.Health.DeadAfter))
			if c.quar.Strike(w.name, c.tick) {
				c.tripLocked(w.name, "heartbeat death")
			}
		case fleet.Suspect:
			if w.suspect == 0 {
				w.suspect = c.tick
				c.stats.Suspects++
				c.log().Warn("fabric: worker suspect, hedging its granules",
					"worker", w.name, "inflight", len(w.inflight))
			}
		}
	}
}

// placeLocked is the one "run this granule somewhere else too"
// decision: it shows the replica policy g's votes, live holders, age
// and sole holder's health, and issues the copies the policy finds
// missing to the workers pickLocked names. A queued granule is left to
// dispatch — the queue is its one place — unless it holds votes an
// exhausted electorate must settle.
func (c *Coordinator) placeLocked(g *granule) {
	if g.queued && len(g.votes) == 0 {
		return
	}
	view := fleet.GranuleView{
		VotesWanted: g.votesWanted,
		VotesCast:   len(g.votes),
		Holders:     g.holders,
		Age:         c.tick - g.issuedTick,
	}
	for _, w := range c.workers {
		if _, held := w.inflight[g.id]; held && g.holders == 1 {
			// Suspicion hedges once, at onset. A hedge retried every tick
			// would race the eviction deadline, whose re-queue is the
			// backstop when no worker has budget now.
			view.SoleHolderSuspect = w.suspect == c.tick
		}
		if !g.voted(w.name) {
			view.Electorate++
		}
	}
	want, why := c.replicas.Copies(view)
	if why == fleet.Exhausted {
		c.decideVotesLocked(g)
		return
	}
	if g.queued {
		return
	}
	for g.holders < want {
		w := c.pickLocked(g, true)
		if w == nil {
			return
		}
		if why != fleet.Validating {
			if why == fleet.HedgeStraggler {
				// Repeatedly sitting on granules past the straggle deadline
				// is the timeout pattern the circuit breaker exists for.
				for _, h := range c.workers {
					if _, stale := h.inflight[g.id]; stale && c.quar.Strike(h.name, c.tick) {
						c.tripLocked(h.name, "straggling granule re-issued")
					}
				}
			}
			c.stats.Duplicated++
			c.log().Info("fabric: granule duplicated",
				"granule", g.id, "kind", g.kind, "worker", w.name)
		}
		c.issueLocked(w, g)
	}
}

// log returns the coordinator's structured logger (discard when none
// was configured).
func (c *Coordinator) log() *slog.Logger {
	return cliutil.LoggerOrDiscard(c.opts.Log)
}
