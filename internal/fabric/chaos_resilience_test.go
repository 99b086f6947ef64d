package fabric

// Resilience chaos suite: the failures the fleet's health, quarantine,
// and journal machinery exist to absorb. Where chaos_test.go kills
// workers at the process level, these scenarios attack the *network*
// (partitions that keep sockets open, corrupted frames, hung TCP) and
// the *coordinator* (kill -9 with a torn journal tail) and check the
// same invariant throughout: every granule resolves exactly once with
// bytes identical to a serial in-process run. All tests run under
// `make chaos` (-race).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lpm/internal/faultinject"
	"lpm/internal/resilience"
	"lpm/internal/resilience/fleet"
)

// serialValue runs the registered executor in-process — the byte
// baseline every sharded result must match exactly.
func serialValue(t *testing.T, kind string, x, ms int) json.RawMessage {
	t.Helper()
	exec, err := lookupKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(map[string]int{"X": x, "MS": ms})
	if err != nil {
		t.Fatal(err)
	}
	v, err := exec(context.Background(), spec)
	if err != nil {
		t.Fatalf("serial %s(%d): %v", kind, x, err)
	}
	return v
}

// runIdenticalBatch pushes n granules through c concurrently and
// asserts every result is byte-identical to the serial baseline.
func runIdenticalBatch(t *testing.T, c *Coordinator, kind string, n, sleepMS int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec, err := json.Marshal(map[string]int{"X": i, "MS": sleepMS})
			if err != nil {
				errs[i] = err
				return
			}
			raw, err := c.Submit(ctx, kind, fmt.Sprintf("%s|%d|%d", kind, i, sleepMS), spec)
			if err != nil {
				errs[i] = err
				return
			}
			if want := serialValue(t, kind, i, 0); !bytes.Equal(raw, want) {
				errs[i] = fmt.Errorf("result %q differs from serial bytes %q", raw, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("granule %d: %v", i, err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosFabricPartitionDuringStragglerDuplication drops a partition
// on one worker's link mid-batch: its TCP session stays open but no
// bytes move, so its held granules age into stragglers. The straggler
// pass must duplicate them onto the healthy worker and the batch must
// finish with serial-identical bytes despite the partitioned copies
// never resolving.
func TestChaosFabricPartitionDuringStragglerDuplication(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{
		StraggleAfter: 100 * time.Millisecond,
		TickEvery:     5 * time.Millisecond,
		Heartbeat:     25 * time.Millisecond,
		// Health stays far behind the straggler deadline so recovery is
		// attributable to duplication, not eviction.
		Health: HealthPolicy{SuspectAfter: 40, DeadAfter: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy, err := faultinject.NewNetProxy(c.Addr(), 23)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { _ = RunWorker(ctx, proxy.Addr(), WorkerOptions{Name: "proxied", Slots: 1}) }()
	go func() { _ = RunWorker(ctx, c.Addr(), WorkerOptions{Name: "direct", Slots: 1}) }()
	if err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runIdenticalBatch(t, c, "test.sleep", 24, 10)
	}()
	// Let the batch reach steady state, then cut the proxied link.
	waitFor(t, 30*time.Second, "first completions", func() bool {
		return c.Stats().Completed >= 4
	})
	proxy.Partition()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		t.Fatalf("batch never drained through the partition: stats=%+v", c.Stats())
	}
	proxy.Heal()

	st := c.Stats()
	if st.Completed != 24 {
		t.Fatalf("completed=%d, want 24", st.Completed)
	}
	if st.Duplicated == 0 {
		t.Fatalf("stats=%+v: the partitioned worker's granules were never duplicated", st)
	}
}

// TestChaosFabricHungTCPHeartbeatLoss partitions a worker's link
// without closing it — the hung-TCP failure reads and writes never
// detect. Only the heartbeat deadline can: the coordinator must classify
// the worker suspect, then dead, evict it, re-queue its granules, and
// finish the batch on the surviving worker.
func TestChaosFabricHungTCPHeartbeatLoss(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{
		StraggleAfter: -1, // recovery must come from health, not stragglers
		TickEvery:     5 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
		Health:        HealthPolicy{SuspectAfter: 20, DeadAfter: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy, err := faultinject.NewNetProxy(c.Addr(), 29)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() { _ = RunWorker(ctx, proxy.Addr(), WorkerOptions{Name: "hung", Slots: 1}) }()
	go func() { _ = RunWorker(ctx, c.Addr(), WorkerOptions{Name: "alive", Slots: 1}) }()
	if err := c.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runIdenticalBatch(t, c, "test.sleep", 24, 8)
	}()
	waitFor(t, 30*time.Second, "first completions", func() bool {
		return c.Stats().Completed >= 2
	})
	proxy.Partition()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		t.Fatalf("batch never drained past the hung worker: stats=%+v", c.Stats())
	}
	// The eviction may land just after the last granule resolves.
	waitFor(t, 10*time.Second, "hung worker eviction", func() bool {
		return c.Stats().Workers == 1
	})
	proxy.Heal()

	st := c.Stats()
	if st.Completed != 24 {
		t.Fatalf("completed=%d, want 24", st.Completed)
	}
	if st.Suspects == 0 {
		t.Fatalf("stats=%+v: the hung worker was never suspected by heartbeat silence", st)
	}
	if st.Requeued == 0 {
		t.Fatalf("stats=%+v: the dead worker's granules were never re-queued", st)
	}
}

// TestChaosFabricCorruptFrameReconnect flips one bit in forwarded
// frames mid-batch. The LPMCKPT1 CRC must reject the damage and drop
// the session — never resolve a granule from a corrupt frame — and the
// worker's redial loop (the lpmworker reconnect pattern, spaced by the
// shared backoff policy) must restore capacity and drain the batch.
func TestChaosFabricCorruptFrameReconnect(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{
		StraggleAfter: -1,
		TickEvery:     5 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
		Health:        HealthPolicy{SuspectAfter: 40, DeadAfter: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy, err := faultinject.NewNetProxy(c.Addr(), 41)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	policy := fleet.Defaults(99)
	go func() {
		for attempt := 0; ctx.Err() == nil; attempt++ {
			_ = RunWorker(ctx, proxy.Addr(), WorkerOptions{
				Name: "flaky", Slots: 2, DialRetry: 5 * time.Second,
			})
			if err := policy.Sleep(ctx, attempt); err != nil {
				return
			}
		}
	}()
	if err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runIdenticalBatch(t, c, "test.sleep", 16, 8)
	}()
	waitFor(t, 30*time.Second, "first completions", func() bool {
		return c.Stats().Completed >= 4
	})
	proxy.CorruptNext(2)
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		t.Fatalf("batch never drained after frame corruption: stats=%+v", c.Stats())
	}

	st := c.Stats()
	if st.Completed != 16 {
		t.Fatalf("completed=%d, want 16", st.Completed)
	}
	if st.Joined < 2 {
		t.Fatalf("stats=%+v: the corrupted session never reconnected", st)
	}
}

// TestChaosFabricCoordinatorKillJournalResume kills the coordinator
// mid-quarantine, kill -9 style: the successor sees only the journal
// bytes fsynced before the kill, followed by half of one further record
// torn mid-write.
// It must replay the torn journal, carry the liar's quarantine across
// the restart (refusing its handshake), and complete the full sweep
// with bytes identical to a serial run.
func TestChaosFabricCoordinatorKillJournalResume(t *testing.T) {
	dir := t.TempDir()
	j1 := filepath.Join(dir, "sched.journal")
	j2 := filepath.Join(dir, "sched.journal.crashed")

	// Phase 1: one worker lies once; cross-validation must catch and
	// quarantine it, journaling the decision.
	restore := faultinject.Arm(faultinject.NewPlan(31, faultinject.Rule{
		Point: "fabric.worker.lie", Match: "test.double",
		After: 0, Times: 1, Msg: "chaos: worker lies once",
	}))
	c1, err := Listen("127.0.0.1:0", Options{
		StraggleAfter: -1, ValidateEvery: 1, JournalPath: j1,
	})
	if err != nil {
		restore()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ctx1, cancel1 := context.WithCancel(ctx)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() { _ = RunWorker(ctx1, c1.Addr(), WorkerOptions{Name: name, Slots: 1}) }()
	}
	if err := c1.WaitWorkers(ctx, 3); err != nil {
		restore()
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec, _ := json.Marshal(map[string]int{"X": i})
		raw, err := c1.Submit(ctx, "test.double", fmt.Sprintf("test.double|%d|0", i), spec)
		if err != nil {
			restore()
			t.Fatalf("phase 1 granule %d: %v", i, err)
		}
		if want := serialValue(t, "test.double", i, 0); !bytes.Equal(raw, want) {
			restore()
			t.Fatalf("phase 1 granule %d: %q differs from serial %q", i, raw, want)
		}
	}
	restore()
	st1 := c1.Stats()
	if st1.Divergent != 1 || st1.Quarantined != 1 {
		t.Fatalf("phase 1 stats=%+v: want exactly one divergence and one quarantine", st1)
	}
	liars := quarantined(c1)
	if len(liars) != 1 {
		t.Fatalf("quarantine roster=%v, want exactly one liar", liars)
	}

	// kill -9: freeze the journal at this instant. Copying before Close
	// means everything the dying coordinator might still append is
	// invisible to the successor; the first half of one further record
	// after the committed ones is what dying mid-Append leaves — the
	// torn tail replay must tolerate.
	data, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := fleet.ReplayJournal(j1)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(fleet.Entry{
		Seq: uint64(len(committed) + 1), Op: fleet.OpReadmit, Worker: liars[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	torn := resilience.EncodeEnvelope(payload)
	if err := os.WriteFile(j2, append(data, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	cancel1()
	_ = c1.Close()
	// The torn record is lost; the liar's quarantine survived the crash.
	entries, err := fleet.ReplayJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	survived := false
	for _, e := range entries {
		survived = survived || e.Op == fleet.OpQuarantine && e.Worker == liars[0]
	}
	if !survived || len(entries) != len(committed) {
		t.Fatalf("replayed %+v after the crash, want the %d committed records with %s's quarantine",
			entries, len(committed), liars[0])
	}

	// Phase 2: the successor replays the torn journal.
	resumeStart := time.Now()
	c2, err := Listen("127.0.0.1:0", Options{
		StraggleAfter: -1, ValidateEvery: 1, JournalPath: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// No accidental sleep or un-journaled rebuild on the resume path:
	// successor Listen to its first completion is milliseconds of work,
	// so 2s is generous even race-enabled on a loaded host.
	go func() { _ = RunWorker(ctx, c2.Addr(), WorkerOptions{Name: "w4", Slots: 1}) }()
	go func() { _ = RunWorker(ctx, c2.Addr(), WorkerOptions{Name: "w5", Slots: 1}) }()
	spec, _ := json.Marshal(map[string]int{"X": 0})
	if _, err := c2.Submit(ctx, "test.double", "test.double|0|0", spec); err != nil {
		t.Fatalf("first post-resume granule: %v", err)
	}
	if d := time.Since(resumeStart); d > 2*time.Second {
		t.Fatalf("successor Listen to first completion took %v, want under 2s", d)
	}
	if got := quarantined(c2); len(got) != 1 || got[0] != liars[0] {
		t.Fatalf("resumed quarantine=%v, want %v", got, liars)
	}

	// The liar must be refused readmission mid-probation.
	if err := RunWorker(ctx, c2.Addr(), WorkerOptions{Name: liars[0], Slots: 1}); err == nil {
		t.Fatalf("quarantined worker %q was readmitted by the successor", liars[0])
	}

	// Honest workers finish the whole sweep, byte-identical to serial.
	if err := c2.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The first post-resume granule was forgotten once it resolved, so
	// the batch runs its key again: 1 + 12 completions.
	runIdenticalBatch(t, c2, "test.double", 12, 0)
	st2 := c2.Stats()
	if st2.Completed != 13 {
		t.Fatalf("phase 2 completed=%d, want 13", st2.Completed)
	}
	if st2.Quarantined != 1 {
		t.Fatalf("phase 2 stats=%+v: the carried quarantine was lost", st2)
	}
}

// TestChaosFabricLyingWorkerQuarantined runs a fully cross-validated
// batch with one worker lying once. The lie must never escape into a
// result — every byte matches the serial baseline — and the liar must
// be quarantined on the divergence.
func TestChaosFabricLyingWorkerQuarantined(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(37, faultinject.Rule{
		Point: "fabric.worker.lie", Match: "test.double",
		After: 2, Times: 1, Msg: "chaos: lying worker",
	}))()

	lf, err := StartLocal(t.Context(), 3, Options{
		StraggleAfter: -1, ValidateEvery: 1,
	}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	runIdenticalBatch(t, lf.C, "test.double", 18, 0)

	st := lf.C.Stats()
	if st.Completed != 18 {
		t.Fatalf("completed=%d, want 18", st.Completed)
	}
	if st.Validated != 18 {
		t.Fatalf("stats=%+v: every granule should have been cross-validated", st)
	}
	if st.Divergent != 1 {
		t.Fatalf("stats=%+v: the lie should have produced exactly one divergence", st)
	}
	if st.Quarantined != 1 {
		t.Fatalf("stats=%+v: the lying worker was never quarantined", st)
	}
}
