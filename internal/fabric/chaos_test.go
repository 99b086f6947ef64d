package fabric

// Chaos suite for the fabric itself: workers killed, hung, or torn
// mid-granule. The recovery contract under test is the tentpole's
// determinism guarantee — whatever the fleet does, every granule
// resolves exactly once with the value a healthy run would have
// produced, because re-issue and duplication only ever re-run pure
// functions. All tests run under `make chaos` (-race).

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lpm/internal/faultinject"
)

// runChaosBatch pushes n sleepy granules through lf concurrently and
// asserts every one resolves to its correct value.
func runChaosBatch(t *testing.T, lf *LocalFabric, n, sleepMS int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := submitDouble(ctx, t, lf.C, "test.sleep", i, sleepMS)
			if err == nil && got != 2*i {
				err = fmt.Errorf("got %d, want %d", got, 2*i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("granule %d: %v", i, err)
		}
	}
}

// TestChaosFabricWorkerKillMidGranule kills one of two workers on its
// third granule — connection dropped with work in flight. The orphaned
// granules must be re-issued and the whole batch must still resolve
// correctly.
func TestChaosFabricWorkerKillMidGranule(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(7, faultinject.Rule{
		Point: "fabric.worker.kill", Match: "test.sleep",
		After: 2, Msg: "chaos: worker killed mid-granule",
	}))()

	lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	runChaosBatch(t, lf, 12, 5)
	st := lf.C.Stats()
	if st.Completed != 12 {
		t.Fatalf("completed=%d, want 12", st.Completed)
	}
	if st.Requeued == 0 {
		t.Fatalf("stats=%+v: the killed worker's granules were never re-queued", st)
	}
	if st.Workers != 1 {
		t.Fatalf("workers=%d, want 1 (one killed)", st.Workers)
	}
}

// TestChaosFabricWorkerHangStragglerReissue wedges one worker's
// execution forever. The straggler pass must duplicate its granules
// onto the healthy worker so the batch still completes; the hung
// worker is only reaped at Close.
func TestChaosFabricWorkerHangStragglerReissue(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(11, faultinject.Rule{
		Point: "fabric.worker.hang", Match: "test.sleep",
		After: 1, Msg: "chaos: worker hung mid-granule",
	}))()

	lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: 100 * time.Millisecond}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	runChaosBatch(t, lf, 10, 2)
	st := lf.C.Stats()
	if st.Completed != 10 {
		t.Fatalf("completed=%d, want 10", st.Completed)
	}
	if st.Duplicated == 0 {
		t.Fatalf("stats=%+v: the hung granule was never duplicated to an idle worker", st)
	}
}

// TestChaosFabricTornResultFrame tears a worker's result frame halfway
// through the write — the bytes a kill -9 mid-send leaves on the wire.
// The coordinator must detect the torn frame at the envelope boundary,
// drop the worker, and re-issue; no granule may resolve from a corrupt
// frame.
func TestChaosFabricTornResultFrame(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(13, faultinject.Rule{
		Point: "fabric.frame.write", Match: MsgResult,
		After: 1, Msg: "chaos: torn result frame",
	}))()

	lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	runChaosBatch(t, lf, 10, 2)
	st := lf.C.Stats()
	if st.Completed != 10 {
		t.Fatalf("completed=%d, want 10", st.Completed)
	}
	if st.Requeued == 0 {
		t.Fatalf("stats=%+v: the torn-frame worker's granules were never re-queued", st)
	}
}

// TestChaosFabricAllWorkersDieThenRejoin kills every worker, then adds
// a fresh one: queued granules must survive the interregnum and drain
// once capacity returns.
func TestChaosFabricAllWorkersDieThenRejoin(t *testing.T) {
	defer faultinject.Arm(faultinject.NewPlan(17, faultinject.Rule{
		Point: "fabric.worker.kill", Match: "test.sleep",
		After: 0, Times: 2, Msg: "chaos: every worker killed",
	}))()

	lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		runChaosBatch(t, lf, 6, 2)
	}()

	// Wait until the kill rule has consumed both workers, then rejoin.
	deadline := time.Now().Add(30 * time.Second)
	for lf.C.Stats().Workers > 0 || faultinject.Hits("fabric.worker.kill") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never died: stats=%+v", lf.C.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	lf.AddWorker(WorkerOptions{Slots: 2})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("batch never drained after rejoin: stats=%+v", lf.C.Stats())
	}
	if st := lf.C.Stats(); st.Completed != 6 {
		t.Fatalf("completed=%d, want 6", st.Completed)
	}
}

// TestChaosFabricCancelledSessionStartsNothing speaks the coordinator's
// side of the wire to one 1-slot worker and hands it a burst of granules
// in one segment, under a kill rule that would fire for every one of
// them. The first to take the slot is killed, ending the session and
// freeing the slot; any other that reaches its select after that finds a
// free slot AND a cancelled session, and must not start: it would burn a
// simulation on a dead connection and — as here — consume a failpoint
// hit meant for another worker, the
// TestChaosFabricAllWorkersDieThenRejoin flake. Each late arrival is a
// coin flip in broken code, so a burst makes a lucky pass vanishingly
// rare on a multi-core host.
func TestChaosFabricCancelledSessionStartsNothing(t *testing.T) {
	const burst = 16
	segment, err := EncodeFrame(Msg{Type: MsgWelcome, Proto: ProtoVersion})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= burst; id++ {
		frame, err := EncodeFrame(Msg{Type: MsgWork, ID: id, Kind: "test.sleep",
			Key: fmt.Sprint("burst|", id), Spec: []byte(`{"X":1,"MS":5}`)})
		if err != nil {
			t.Fatal(err)
		}
		segment = append(segment, frame...)
	}
	for round := 0; round < 200; round++ {
		restore := faultinject.Arm(faultinject.NewPlan(int64(round), faultinject.Rule{
			Point: "fabric.worker.kill", Match: "test.sleep",
			Times: burst, Msg: "chaos: session killed with granules queued behind it",
		}))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() {
			exited <- RunWorker(context.Background(), ln.Addr().String(), WorkerOptions{Slots: 1})
		}()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if m, err := ReadFrame(conn); err != nil || m.Type != MsgHello {
			t.Fatalf("handshake: %v / %+v", err, m)
		}
		if _, err := conn.Write(segment); err != nil {
			t.Fatal(err)
		}
		// RunWorker returns once every execution goroutine has.
		if err := <-exited; err != nil {
			t.Fatalf("worker exit: %v", err)
		}
		hits := faultinject.Hits("fabric.worker.kill")
		restore()
		_ = conn.Close()
		_ = ln.Close()
		if hits != 1 {
			t.Fatalf("round %d: kill point hit %d times, want 1: a granule started on a cancelled session", round, hits)
		}
	}
}
