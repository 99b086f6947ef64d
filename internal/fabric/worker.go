package fabric

// The worker side of the fabric: dial the coordinator, announce
// capacity, then execute granules until the coordinator goes away or
// the context cancels. Workers are deliberately stateless — every
// granule is a pure function of its spec — so killing one at any
// instant loses nothing but time.
//
// The worker also heartbeats: it sends periodic ping frames, the
// coordinator answers each with a pong, and a run of silent intervals
// makes the worker abandon the session itself — its half of the
// hung-TCP detection the coordinator's health deadlines do from the
// other side.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/faultinject"
	"lpm/internal/resilience/fleet"
)

// ErrDial marks a RunWorker failure that happened before any connection
// was established. Reconnect loops use it to distinguish "the
// coordinator was never there" (give up) from "an established session
// broke" (worth redialling: the coordinator may still be running and
// holding our abandoned granules).
var ErrDial = errors.New("fabric: dial failed")

// missedPongLimit is how many ping intervals of total inbound silence
// (no frame of any type, not just pongs) a worker tolerates before
// declaring its session wedged and dropping it. Deliberately lenient —
// a coordinator grinding under load answers pings late without the
// session being hung; a genuinely wedged TCP session (the peer
// vanished without a FIN) stays silent and is caught within seconds.
const missedPongLimit = 16

// WorkerOptions configure RunWorker.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator — logs, health and
	// quarantine; a session under a connected worker's name replaces
	// that one. Defaults to the local connection address; a name over
	// maxWorkerName bytes is refused with ErrWorkerName.
	Name string
	// Slots is how many granules execute concurrently (default 1, at most
	// maxSlots): the supply rate the coordinator's dispatch matches.
	Slots int
	// DialRetry keeps retrying a failed dial for this long before
	// giving up, so workers may be launched before their coordinator.
	// 0 fails fast on the first refused connection. Attempts are spaced
	// by fleet.Defaults(Seed)'s backoff schedule.
	DialRetry time.Duration
	// Seed seeds the dial-retry jitter stream; give each worker a
	// distinct seed so a killed fleet does not re-dial in lockstep.
	Seed uint64
	// Log receives structured worker diagnostics with granule attrs;
	// nil discards them.
	Log *slog.Logger
	// Obs, when set, receives worker telemetry: granule execution
	// latency histograms and executed/failed/abandoned counts. Nil keeps
	// every probe a nil-receiver no-op.
	Obs *WorkerTelemetry
}

// RunWorker connects to a coordinator at addr and serves granules until
// the coordinator disconnects (clean shutdown, returns nil) or ctx
// cancels (returns nil — a signalled worker is a normal exit). Other
// transport or protocol failures are returned as errors.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Slots > maxSlots {
		return fmt.Errorf("%w: not dialling with %d slots, the protocol bound is %d", ErrDial, opts.Slots, maxSlots)
	}
	if len(opts.Name) > maxWorkerName {
		return fmt.Errorf("%w: %w: not dialling as a %d-byte name", ErrDial, ErrWorkerName, len(opts.Name))
	}
	conn, err := dialRetry(ctx, addr, opts.DialRetry, fleet.Defaults(opts.Seed))
	if err != nil {
		return fmt.Errorf("%w: coordinator %s: %v", ErrDial, addr, err)
	}
	defer conn.Close()
	if opts.Name == "" {
		opts.Name = conn.LocalAddr().String()
	}

	w := &workerState{opts: opts, conn: conn, r: bufio.NewReader(conn), fw: frameWriter{w: conn}}
	w.ctx, w.cancel = context.WithCancel(ctx)
	defer w.cancel()
	// A cancelled context unblocks the read loop by closing the
	// connection out from under it.
	stop := context.AfterFunc(w.ctx, func() { _ = conn.Close() })
	defer stop()

	var welcome Msg
	err = w.send(Msg{Type: MsgHello, Proto: ProtoVersion, Worker: opts.Name, Slots: opts.Slots})
	if err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(handshakeWithin))
		welcome, err = readHandshake(w.r)
		_ = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		if ctx.Err() != nil {
			// The cancellation closed the connection mid-handshake: a
			// normal exit, as it is once the session runs.
			return nil
		}
		return fmt.Errorf("fabric: handshake: %w", err)
	}
	if welcome.Type != MsgWelcome || welcome.Proto != ProtoVersion {
		return fmt.Errorf("fabric: handshake: coordinator sent %q (proto %d), want %q (proto %d)",
			welcome.Type, welcome.Proto, MsgWelcome, ProtoVersion)
	}
	w.lastFrame.Store(time.Now().UnixNano())
	w.log().Info("fabric: worker connected",
		"worker", opts.Name, "coordinator", addr, "slots", opts.Slots)
	if welcome.PingMS > 0 {
		w.loops.Add(1)
		go w.heartbeatLoop(time.Duration(welcome.PingMS) * time.Millisecond)
	}

	// The slot executors live as long as the session: each takes the
	// next work frame off the queue the read loop fills, runs it and
	// sends its result.
	work := make(chan Msg, sessionBuffer(opts.Slots))
	w.execs.Add(opts.Slots)
	for range opts.Slots {
		go w.executor(work)
	}
	err = w.readLoop(work)
	w.cancel()
	close(work)
	w.execs.Wait()
	w.loops.Wait()
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || ctx.Err() != nil {
		// The coordinator finished (EOF/reset), or we were cancelled:
		// both are the normal end of a worker's life.
		return nil
	}
	return err
}

// dialRetry dials the coordinator, retrying refused connections inside
// the window — spaced by the shared backoff policy, so worker and
// coordinator launch order does not matter and a restarted fleet does
// not hammer the listener in lockstep.
func dialRetry(ctx context.Context, addr string, window time.Duration, policy fleet.RetryPolicy) (net.Conn, error) {
	deadline := time.Now().Add(window)
	for attempt := 0; ; attempt++ {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return nil, err
		}
		if serr := policy.Sleep(ctx, attempt); serr != nil {
			return nil, err
		}
	}
}

// workerState is the per-connection state of one running worker.
type workerState struct {
	opts   WorkerOptions
	conn   net.Conn
	r      *bufio.Reader // every inbound frame, the welcome included, is read through it
	ctx    context.Context
	cancel context.CancelFunc

	writeMu sync.Mutex  // serialises frames from concurrent executions
	fw      frameWriter // guarded by writeMu
	execs   sync.WaitGroup
	loops   sync.WaitGroup

	pingSeq   atomic.Uint64
	pongSeen  atomic.Uint64 // ID of the last pong received
	lastFrame atomic.Int64  // UnixNano of the last inbound frame
}

// send writes one frame, serialised against concurrent executions. A
// failed send is fatal for the connection: the stream may hold a torn
// frame, so the only safe move is to drop the link and let the
// coordinator re-issue.
func (w *workerState) send(m Msg) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	if err := w.fw.WriteFrame(m); err != nil {
		_ = w.conn.Close()
		w.cancel()
		return err
	}
	return nil
}

// heartbeatLoop sends pings on the coordinator-assigned cadence. When
// missedPongLimit ping intervals pass with no inbound frame of any
// kind, the session is wedged — bytes are not flowing even though the
// socket looks open — so the worker drops the link itself and lets its
// reconnect path take over.
func (w *workerState) heartbeatLoop(every time.Duration) {
	defer w.loops.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-ticker.C:
		}
		seq := w.pingSeq.Add(1)
		seen := w.pongSeen.Load()
		if silent := time.Since(time.Unix(0, w.lastFrame.Load())); silent > time.Duration(missedPongLimit)*every {
			w.log().Warn("fabric: session wedged, dropping connection",
				"worker", w.opts.Name, "silent", silent.String(), "pings_unanswered", seq-seen-1)
			_ = w.conn.Close()
			w.cancel()
			return
		}
		if err := w.send(Msg{Type: MsgPing, ID: seq}); err != nil {
			return
		}
	}
}

// pongReceived records the newest pong, which the wedge warning counts
// unanswered pings from.
func (w *workerState) pongReceived(m Msg) {
	if m.ID > w.pongSeen.Load() {
		w.pongSeen.Store(m.ID)
	}
}

// readLoop demultiplexes coordinator frames: work joins the slot
// executors' queue, pongs feed the heartbeat accounting. It never blocks
// on the queue — the read loop must keep draining frames (pongs in
// particular) even when every slot is busy, or a long granule would
// starve the heartbeat and the session would look wedged. The
// coordinator holds at most budget(slots) granules on this worker, far
// fewer than the queue takes, so a work frame that finds it full is a
// protocol violation and drops the session.
func (w *workerState) readLoop(work chan<- Msg) error {
	for {
		m, err := ReadFrame(w.r)
		if err != nil {
			return err
		}
		if w.ctx.Err() != nil {
			return nil // the session ended from this side; what is still buffered is moot
		}
		w.lastFrame.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgWork:
			select {
			case work <- m:
			default:
				return fmt.Errorf("fabric: coordinator sent work past the %d-frame queue of a %d-slot worker",
					cap(work), w.opts.Slots)
			}
		case MsgPong:
			w.pongReceived(m)
		default:
			return fmt.Errorf("fabric: unexpected %q frame from coordinator", m.Type)
		}
	}
}

// executor is one slot: it runs queued granules one at a time until the
// session ends. A granule still queued when the session is cancelled is
// abandoned unstarted — the execution before it may have killed the
// session, and the coordinator re-issues whatever a dead session held.
func (w *workerState) executor(work <-chan Msg) {
	defer w.execs.Done()
	for m := range work {
		if w.ctx.Err() == nil {
			w.execute(m)
		}
	}
}

// execute runs one granule and sends its result. The chaos failpoints
// live here: "fabric.worker.kill" drops the connection mid-granule (a
// crashed worker), "fabric.worker.hang" wedges the slot until the
// connection dies (a livelocked worker the straggler re-issue must
// cover for), and "fabric.worker.lie" corrupts the computed value
// before it is sent (a lying worker cross-validation must catch).
func (w *workerState) execute(m Msg) {
	if err := faultinject.Hit("fabric.worker.kill", m.Kind); err != nil {
		w.log().Warn("fabric: injected kill on granule",
			"worker", w.opts.Name, "granule", m.ID, "err", err.Error())
		_ = w.conn.Close()
		w.cancel()
		return
	}
	if err := faultinject.Hit("fabric.worker.hang", m.Kind); err != nil {
		w.log().Warn("fabric: injected hang on granule",
			"worker", w.opts.Name, "granule", m.ID, "err", err.Error())
		<-w.ctx.Done()
		return
	}

	result := Msg{Type: MsgResult, ID: m.ID}
	start := time.Now()
	exec, err := lookupKind(m.Kind)
	if err == nil {
		result.Value, err = runExecutor(w.ctx, exec, m)
	}
	if err != nil {
		if w.ctx.Err() != nil {
			// Shutting down; a partial result must not be sent. Say so
			// loudly — the coordinator re-issues the granule elsewhere.
			w.opts.Obs.Abandoned()
			w.log().Warn("fabric: abandoning granule mid-execution on shutdown",
				"worker", w.opts.Name, "granule", m.ID, "kind", m.Kind, "key", m.Key)
			return
		}
		result.Value = nil
		result.Failed, result.Error = true, err.Error()
	}
	if lieErr := faultinject.Hit("fabric.worker.lie", m.Kind); lieErr != nil && !result.Failed {
		// A lying worker: the computed value is silently corrupted on
		// the way out. Deterministic per granule id so the chaos suite
		// replays the exact same lie; the frame carries the value as
		// opaque bytes, so the flipped bit reaches the vote as it is.
		result.Value = faultinject.FlipBit(result.Value, int64(m.ID))
		w.log().Warn("fabric: injected lie on granule",
			"worker", w.opts.Name, "granule", m.ID, "err", lieErr.Error())
	}
	w.opts.Obs.Executed(time.Since(start), result.Failed)
	_ = w.send(result)
}

// runExecutor invokes the kind's executor, converting a panic into an
// error so one poisoned granule cannot take down the whole worker.
func runExecutor(ctx context.Context, exec Executor, m Msg) (value []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fabric: executor for %s panicked: %v", m.Kind, r)
		}
	}()
	return exec(ctx, m.Spec)
}

// log returns the worker's structured logger (discard when none was
// configured).
func (w *workerState) log() *slog.Logger {
	return cliutil.LoggerOrDiscard(w.opts.Log)
}
