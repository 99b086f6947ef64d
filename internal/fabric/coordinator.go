package fabric

// The coordinator side of the fabric: the TCP shell around the
// scheduler (sched.go). It accepts workers, runs one reader and one
// writer per connection and the tick loop, and implements the
// scheduler's port over sockets, Submit waiters and the journal file.
// One mutex guards the scheduler: each reader frame, each tick and each
// Submit takes it and calls one transition, and no goroutine is spawned
// from scheduling code — a session the scheduler drops is closed before
// the transition returns.
//
// When a journal is configured every quarantine and readmission is
// fsynced before it takes effect, so a kill -9 of this process resumes
// from the journal plus the driver's result checkpoint.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"lpm/internal/resilience/fleet"
)

// ErrCoordinatorClosed is returned by Submit when the coordinator shuts
// down with the granule still unresolved.
var ErrCoordinatorClosed = errors.New("fabric: coordinator closed")

// Options configure a coordinator.
type Options struct {
	// StraggleAfter is how long a granule may be held without a result
	// before it is duplicated onto an idle worker. 0 means the 30s
	// default; negative disables straggler re-issue.
	StraggleAfter time.Duration
	// TickEvery is the cadence of the coordinator's logical clock; all
	// health, straggler and probation deadlines are measured in these
	// ticks. 0 means the 25ms default.
	TickEvery time.Duration
	// Heartbeat is the ping cadence assigned to workers in the welcome
	// frame. 0 means the 250ms default; negative disables heartbeats
	// (and with them health classification).
	Heartbeat time.Duration
	// Health classifies worker silence in ticks; the zero value means
	// the default (suspect after 80 ticks, dead after 400: 2s and 10s at
	// the default tick).
	Health HealthPolicy
	// ValidateEvery samples cross-validation: every Kth granule (by id)
	// is executed redundantly on two workers and the answers compared;
	// divergence re-runs on a third worker and quarantines the outlier.
	// 0 disables validation; 1 validates every granule.
	ValidateEvery int
	// JournalPath, when set, appends every quarantine and readmission
	// to an LPMCKPT1-framed journal at this path (fsynced per record). A
	// pre-existing journal is replayed first, so the quarantine roster
	// carries across a coordinator restart.
	JournalPath string
	// Log receives structured coordinator diagnostics (worker joins,
	// deaths, re-issues) with worker/granule attrs; nil discards them.
	Log *slog.Logger
}

// link is a session's transport: its socket and the frames its
// writer drains onto it.
type link struct {
	conn   net.Conn
	outbox chan Msg
}

// flushWithin bounds how long a dropped session's writer may spend
// flushing the frames already queued before it closes the connection:
// long enough for a live peer, short enough that a hung one costs
// nothing.
const flushWithin = 500 * time.Millisecond

// handshakeWithin bounds how long either end waits for the other's
// handshake frame. Heartbeats only start after the handshake, so
// without it a hello or welcome whose length field was damaged in
// flight would leave both ends waiting for bytes that never come.
const handshakeWithin = 5 * time.Second

// Coordinator accepts workers and brokers granules between Submit
// callers and the worker fleet.
type Coordinator struct {
	opts Options
	ln   net.Listener

	mu          sync.Mutex
	s           *scheduler
	journalFile *fleet.Journal
	// admitted is closed, and replaced, each time a hello is admitted:
	// the wake-up WaitWorkers parks on.
	admitted chan struct{}

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
	if opts.Health == (HealthPolicy{}) {
		// ~2s to suspicion, ~10s to eviction at the default 25ms tick.
		// Deliberately lenient: a worker grinding a multi-second granule
		// on a saturated host misses several ping slots without being
		// hung, and suspicion already hedges with duplicates. A truly
		// hung TCP session is still caught in seconds.
		opts.Health = HealthPolicy{SuspectAfter: 80, DeadAfter: 400}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	c := &Coordinator{opts: opts, ln: ln, closed: make(chan struct{}), admitted: make(chan struct{})}
	c.s = newScheduler(c, opts)
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

// openJournal opens the journal at JournalPath for appending and
// restores the quarantine roster its records hold.
func (c *Coordinator) openJournal() error {
	j, err := fleet.OpenJournal(c.opts.JournalPath)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	c.s.restore(j.Recovered())
	c.journalFile = j
	return nil
}

// Addr returns the coordinator's bound listen address, for handing to
// workers (and for tests that listen on port 0).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down: the listener closes, every worker
// connection drops once its writer has flushed the frames already
// queued for it (a worker WaitWorkers counted always receives its
// welcome), and pending Submit calls fail with ErrCoordinatorClosed.
// Safe to call more than once.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		_ = c.ln.Close()
		c.mu.Lock()
		for _, w := range c.s.sessions {
			c.s.drop(w, errors.New("coordinator closing"))
		}
		c.s.reap()
		c.mu.Unlock()
	})
	c.loops.Wait()
	c.mu.Lock()
	j := c.journalFile
	c.journalFile = nil
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
	return c.s.stats
}

// WaitWorkers blocks until at least n workers are connected, ctx
// cancels, or the coordinator closes. Each admitted hello wakes it to
// count again, so it returns as the n-th worker is admitted; a refused
// hello or a session that replaces one under the same name adds no
// worker and leaves it waiting.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		have, admitted := c.s.stats.Workers, c.admitted
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: waiting for %d workers (have %d): %w", n, have, ctx.Err())
		case <-c.closed:
			return ErrCoordinatorClosed
		case <-admitted:
		}
	}
}

// Submit resolves one granule: a computation still running under the
// same key is shared single-flight, otherwise the granule is queued for
// dispatch. Blocks until the granule resolves, ctx cancels, or the
// coordinator closes. A remote failure comes back as an error whose
// text is the worker-side error text verbatim, empty text included, so a
// sharded run's error cells match a serial run's byte-for-byte.
func (c *Coordinator) Submit(ctx context.Context, kind, key string, spec json.RawMessage) (json.RawMessage, error) {
	c.mu.Lock()
	g := c.s.submit(kind, key, spec)
	c.mu.Unlock()

	select {
	case <-g.done:
		if g.failed {
			return nil, errors.New(g.errText)
		}
		return g.value, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrCoordinatorClosed
	}
}

// send is the port's frame path: m joins w's outbox unless it is full.
func (c *Coordinator) send(w *session, m Msg) bool {
	select {
	case w.link.outbox <- m:
		return true
	default:
		return false
	}
}

// drop is the port's close path: the writer flushes what is queued,
// within flushWithin, then closes the connection, which fails the
// reader's next read.
func (c *Coordinator) drop(w *session, _ error) {
	_ = w.link.conn.SetWriteDeadline(time.Now().Add(flushWithin))
	close(w.link.outbox)
}

// resolve is the port's wake-up: every Submit waiting on g returns.
func (c *Coordinator) resolve(g *granule) { close(g.done) }

// journal is the port's journal path (a no-op without one); append
// failures are logged, not fatal — losing the journal degrades resume,
// not the sweep.
func (c *Coordinator) journal(e fleet.Entry) {
	if c.journalFile == nil {
		return
	}
	if err := c.journalFile.Append(e); err != nil {
		c.s.log.Warn("fabric: journal append failed", "op", e.Op, "err", err.Error())
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
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(handshakeWithin))
	hello, err := readHandshake(r)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil || hello.Type != MsgHello {
		c.s.log.Warn("fabric: rejecting connection: bad handshake",
			"remote", fmt.Sprint(conn.RemoteAddr()), "err", fmt.Sprint(err))
		_ = conn.Close()
		return
	}
	if err := checkHello(hello); err != nil {
		c.s.log.Warn("fabric: rejecting worker", "worker", hello.Worker, "reason", err.Error())
		_ = conn.Close()
		return
	}
	w := &session{
		name:  hello.Worker,
		slots: hello.Slots,
		link:  &link{conn: conn, outbox: make(chan Msg, sessionBuffer(hello.Slots))},
	}
	c.mu.Lock()
	admitted := false
	select {
	case <-c.closed:
	default:
		admitted = c.s.hello(w)
	}
	if admitted {
		close(c.admitted)
		c.admitted = make(chan struct{})
	}
	c.mu.Unlock()
	if !admitted {
		_ = conn.Close()
		return
	}
	go c.writeLoop(w)
	c.s.log.Info("fabric: worker joined",
		"worker", w.name, "slots", w.slots, "remote", fmt.Sprint(conn.RemoteAddr()))

	for {
		m, err := ReadFrame(r)
		if err == nil && m.Type != MsgResult && m.Type != MsgPing {
			err = fmt.Errorf("unexpected %q frame from worker", m.Type)
		}
		c.mu.Lock()
		switch {
		case err != nil:
			c.s.gone(w, err)
		case m.Type == MsgResult:
			c.s.result(w, m)
		default:
			c.s.ping(w, m)
		}
		c.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// writeLoop drains w's outbox onto the wire until the session is
// dropped, then closes the connection; a write failure drops the
// worker.
func (c *Coordinator) writeLoop(w *session) {
	defer w.link.conn.Close()
	fw := frameWriter{w: w.link.conn}
	for m := range w.link.outbox {
		if err := fw.WriteFrame(m); err != nil {
			c.mu.Lock()
			c.s.gone(w, err)
			c.mu.Unlock()
			return
		}
	}
}

// tickLoop drives the scheduler's logical clock.
func (c *Coordinator) tickLoop() {
	defer c.loops.Done()
	ticker := time.NewTicker(c.opts.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
			c.mu.Lock()
			c.s.onTick()
			c.mu.Unlock()
		}
	}
}
