package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lpm/internal/resilience"
)

// The WaitWorkers tests drive handshakes by hand, so each admission
// happens exactly when the test says. Heartbeats are off and the tick
// never fires, so no session is evicted and no quarantine expires while
// a test runs. None of them times the wake-up; the benchmark's sweep_noop
// setup_s does.

// joinOpts configures a coordinator whose sessions only end on purpose.
var joinOpts = Options{StraggleAfter: -1, Heartbeat: -1, TickEvery: time.Hour}

// handshake dials c and says hello as name. The error is nil when the
// coordinator answers with its welcome, and set when it refuses the
// worker (it closes the connection) or answers anything else.
func handshake(t *testing.T, c *Coordinator, name string) (net.Conn, error) {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(conn, Msg{Type: MsgHello, Proto: ProtoVersion, Worker: name, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(conn)
	if err == nil && m.Type != MsgWelcome {
		err = fmt.Errorf("answered %q, want a welcome", m.Type)
	}
	return conn, err
}

// admit says hello as name and fails t unless the worker is admitted.
func admit(t *testing.T, c *Coordinator, name string) net.Conn {
	t.Helper()
	conn, err := handshake(t, c, name)
	if err != nil {
		t.Fatalf("worker %s: %v", name, err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// waitAsync runs WaitWorkers(ctx, n) and delivers its answer.
func waitAsync(ctx context.Context, c *Coordinator, n int) <-chan error {
	done := make(chan error, 1)
	go func() { done <- c.WaitWorkers(ctx, n) }()
	return done
}

// stillWaiting fails t if the wait has returned. It gives a wrong wait
// a moment to return; a right one never does, so a slow host cannot
// fail it.
func stillWaiting(t *testing.T, done <-chan error, after string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("WaitWorkers returned %v after %s", err, after)
	case <-time.After(50 * time.Millisecond):
	}
}

// waitAnswer returns the wait's answer, failing t if none comes.
func waitAnswer(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("WaitWorkers still blocked")
		return nil
	}
}

// listenForJoins starts a loopback coordinator that t closes.
func listenForJoins(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	c, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestWaitWorkersReturnsAtTheNthAdmission: a wait for two workers holds
// while one has joined and returns nil once the second is admitted.
func TestWaitWorkersReturnsAtTheNthAdmission(t *testing.T) {
	c := listenForJoins(t, joinOpts)
	admit(t, c, "a")
	done := waitAsync(context.Background(), c, 2)
	stillWaiting(t, done, "one of two workers joined")
	admit(t, c, "b")
	if err := waitAnswer(t, done); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Workers != 2 {
		t.Fatalf("stats=%+v, want 2 workers", st)
	}
}

// TestWaitWorkersWakesEveryWaiter: workers joining at once wake every
// waiter, and each returns once its own count is reached.
func TestWaitWorkersWakesEveryWaiter(t *testing.T) {
	const workers = 4
	lf, err := StartLocal(t.Context(), 0, joinOpts, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	var waits []<-chan error
	for n := 1; n <= workers; n++ {
		waits = append(waits, waitAsync(context.Background(), lf.C, n), waitAsync(context.Background(), lf.C, n))
	}
	for i := 0; i < workers; i++ {
		lf.AddWorker(WorkerOptions{})
	}
	for _, done := range waits {
		if err := waitAnswer(t, done); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWaitWorkersIgnoresARefusedHello: a quarantined worker is refused
// at hello, so it is not counted and the wait goes on.
func TestWaitWorkersIgnoresARefusedHello(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.journal")
	record := `{"seq":1,"tick":0,"op":"quarantine","worker":"liar","detail":"divergent answer"}`
	if err := os.WriteFile(path, resilience.EncodeEnvelope([]byte(record)), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := joinOpts
	opts.JournalPath = path
	c := listenForJoins(t, opts)
	admit(t, c, "a")
	done := waitAsync(context.Background(), c, 2)
	conn, err := handshake(t, c, "liar")
	_ = conn.Close()
	if err == nil {
		t.Fatal("quarantined worker was welcomed")
	}
	stillWaiting(t, done, "a quarantined worker was refused")
	if st := c.Stats(); st.Workers != 1 || st.Joined != 1 {
		t.Fatalf("stats=%+v, want the one admitted worker", st)
	}
	admit(t, c, "b")
	if err := waitAnswer(t, done); err != nil {
		t.Fatal(err)
	}
}

// TestWaitWorkersIgnoresAReplacedSession: a redial under a connected
// worker's name replaces that session, so the count stays at one and a
// wait for two goes on.
func TestWaitWorkersIgnoresAReplacedSession(t *testing.T) {
	c := listenForJoins(t, joinOpts)
	admit(t, c, "rack3")
	done := waitAsync(context.Background(), c, 2)
	admit(t, c, "rack3")
	if st := c.Stats(); st.Workers != 1 || st.Joined != 2 {
		t.Fatalf("stats=%+v, want one worker after a replaced session", st)
	}
	stillWaiting(t, done, "a session was replaced under the same name")
	admit(t, c, "rack4")
	if err := waitAnswer(t, done); err != nil {
		t.Fatal(err)
	}
}

// TestWaitWorkersReturnsOnClose: closing the coordinator ends a wait
// with ErrCoordinatorClosed.
func TestWaitWorkersReturnsOnClose(t *testing.T) {
	c := listenForJoins(t, joinOpts)
	done := waitAsync(context.Background(), c, 1)
	_ = c.Close()
	if err := waitAnswer(t, done); !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("got %v, want ErrCoordinatorClosed", err)
	}
}

// TestWaitWorkersCancelNamesBothCounts: cancelling ctx ends a wait with
// an error that wraps ctx.Err() and names the workers wanted and had.
func TestWaitWorkersCancelNamesBothCounts(t *testing.T) {
	c := listenForJoins(t, joinOpts)
	admit(t, c, "a")
	ctx, cancel := context.WithCancel(context.Background())
	done := waitAsync(ctx, c, 3)
	cancel()
	err := waitAnswer(t, done)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "waiting for 3 workers (have 1)") {
		t.Fatalf("got %v, want a cancelled wait for 3 workers with 1", err)
	}
}
