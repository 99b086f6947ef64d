package fabric

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lpm/internal/faultinject"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
	"lpm/internal/resilience/fleet"
)

// Toy granule kinds for harness tests. Registered once for the whole
// test binary; individual tests steer behaviour through the spec.
//
//	test.double  {"X":n}            -> 2n
//	test.sleep   {"X":n,"MS":d}     -> 2n after d milliseconds
//	test.fail    {"Text":s}         -> error with text s
//	test.flaky   {}                 -> error shaped like a broken stream
//	test.block   any                -> the spec; once armed, the first run
//	                                   blocks until its ctx is cancelled
//
// Like the real kinds they are pure functions of the spec, so straggler
// duplicates and re-issues stay sound.
var testExecCount atomic.Int64 // test.double/test.sleep invocations

var testFlakyCount atomic.Int64 // test.flaky invocations

// testBlockArmed makes the next test.block run block until its ctx is
// cancelled; that run signals testBlockStarted first.
var (
	testBlockArmed   atomic.Bool
	testBlockStarted = make(chan struct{}, 1)
)

// testRunning/testPeak gauge how many sleeping toy granules execute at
// once, for the slots and whole-batch tests (which reset the peak).
var testRunning, testPeak atomic.Int64

// sleepGauged sleeps ms under the concurrency gauge.
func sleepGauged(ctx context.Context, ms int) error {
	n := testRunning.Add(1)
	defer testRunning.Add(-1)
	for peak := testPeak.Load(); n > peak && !testPeak.CompareAndSwap(peak, n); peak = testPeak.Load() {
	}
	select {
	case <-time.After(time.Duration(ms) * time.Millisecond):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// batchSpec is the typed form of test.sleep, for Kind.DoAll.
type batchSpec struct{ X, MS int }

func (s batchSpec) MemoKey() string { return fmt.Sprintf("test.batch|%d|%d", s.X, s.MS) }

// failSpec is the typed form of test.fail.
type failSpec struct{ Text string }

func (s failSpec) MemoKey() string { return "test.failing|" + s.Text }

var failKind = NewKind("test.failing", func(_ context.Context, s failSpec) (int, error) {
	return 0, errors.New(s.Text)
})

var batchKind = NewKind("test.batch", func(ctx context.Context, s batchSpec) (int, error) {
	return 2 * s.X, sleepGauged(ctx, s.MS)
})

func init() {
	double := func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s struct {
			X  int
			MS int
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		testExecCount.Add(1)
		if s.MS > 0 {
			if err := sleepGauged(ctx, s.MS); err != nil {
				return nil, err
			}
		}
		return json.Marshal(2 * s.X)
	}
	RegisterKind("test.double", double)
	RegisterKind("test.sleep", double)
	RegisterKind("test.fail", func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s struct{ Text string }
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s", s.Text)
	})
	RegisterKind("test.block", func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		if testBlockArmed.CompareAndSwap(true, false) {
			testBlockStarted <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return raw, nil
	})
	RegisterKind("test.flaky", func(context.Context, json.RawMessage) (json.RawMessage, error) {
		testFlakyCount.Add(1)
		return nil, fmt.Errorf("flaky link: %w", io.ErrUnexpectedEOF)
	})
}

// submitDouble submits one test.double/test.sleep granule and decodes
// the result.
func submitDouble(ctx context.Context, t *testing.T, c *Coordinator, kind string, x, ms int) (int, error) {
	t.Helper()
	spec, err := json.Marshal(map[string]int{"X": x, "MS": ms})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Submit(ctx, kind, fmt.Sprintf("%s|%d|%d", kind, x, ms), spec)
	if err != nil {
		return 0, err
	}
	var got int
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return got, nil
}

// TestFabricComputesAcrossWorkers pushes a batch of granules through a
// 3-worker local fabric and checks values, single-flight accounting,
// and clean teardown.
func TestFabricComputesAcrossWorkers(t *testing.T) {
	lf, err := StartLocal(t.Context(), 3, Options{StraggleAfter: -1}, WorkerOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 20
	var wg sync.WaitGroup
	got := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = submitDouble(ctx, t, lf.C, "test.double", i, 0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("granule %d: %v", i, errs[i])
		}
		if got[i] != 2*i {
			t.Fatalf("granule %d: got %d, want %d", i, got[i], 2*i)
		}
	}
	st := lf.C.Stats()
	if st.Submitted != n || st.Completed != n {
		t.Fatalf("stats: submitted=%d completed=%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	if st.Joined != 3 {
		t.Fatalf("stats: joined=%d, want 3", st.Joined)
	}
	if err := lf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFabricSingleFlight proves concurrent submissions under one key
// collapse to one granule and one execution.
func TestFabricSingleFlight(t *testing.T) {
	lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	before := testExecCount.Load()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := submitDouble(ctx, t, lf.C, "test.sleep", 21, 20); err != nil || got != 42 {
				t.Errorf("got %d, %v; want 42, nil", got, err)
			}
		}()
	}
	wg.Wait()
	if st := lf.C.Stats(); st.Submitted != 1 {
		t.Fatalf("submitted=%d, want 1 (single-flight)", st.Submitted)
	}
	if execs := testExecCount.Load() - before; execs != 1 {
		t.Fatalf("executions=%d, want 1", execs)
	}
}

// TestFabricErrorText proves a worker-side failure comes back with the
// worker's error text verbatim — the property that keeps sharded error
// cells byte-identical to serial ones.
func TestFabricErrorText(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	spec, _ := json.Marshal(map[string]string{"Text": "simulate 410.bwaves: livelock at cycle 99"})
	_, err = lf.C.Submit(context.Background(), "test.fail", "fail|1", spec)
	if err == nil || err.Error() != "simulate 410.bwaves: livelock at cycle 99" {
		t.Fatalf("got %v, want the worker's error text verbatim", err)
	}
}

// TestFabricEmptyErrorTextIsAnError: an executor error whose text is
// empty still comes back from Submit as an error — with that empty text,
// as the executor returned it in process — whether one worker answers or
// two cross-validate the answer.
func TestFabricEmptyErrorTextIsAnError(t *testing.T) {
	for _, validate := range []int{0, 1} {
		lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1, ValidateEvery: validate}, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		value, err := lf.C.Submit(context.Background(), "test.fail", "fail|empty", json.RawMessage(`{"Text":""}`))
		lf.Close()
		if err == nil || err.Error() != "" || value != nil {
			t.Fatalf("ValidateEvery %d: got value %s, error %v; want no value and an error with empty text", validate, value, err)
		}
	}
}

// rawErrText is an error text JSON cannot carry byte for byte: invalid
// UTF-8, a NUL and a quote.
const rawErrText = "simulate: bad \xff\xfe bytes, a NUL \x00 and a \" quote"

// rawErrSpec names one submission of test.rawerr; every one fails with
// rawErrText.
type rawErrSpec struct{ Case string }

func (s rawErrSpec) MemoKey() string { return "test.rawerr|" + s.Case }

var rawErrKind = NewKind("test.rawerr", func(context.Context, rawErrSpec) (int, error) {
	return 0, errors.New(rawErrText)
})

// TestFabricErrorTextCrossesByteForByte: an executor's error text comes
// back from a sharded run exactly as the in-process run returns it,
// bytes JSON would rewrite included, whether one worker answers or two
// cross-validate the answer.
func TestFabricErrorTextCrossesByteForByte(t *testing.T) {
	parallel.ResetAllMemos() // an earlier -count run memoised every case
	ctx := context.Background()
	if _, err := rawErrKind.Do(ctx, rawErrSpec{"in-process"}); err == nil || err.Error() != rawErrText {
		t.Fatalf("in-process: got %q, want %q", err, rawErrText)
	}
	for _, validate := range []int{0, 1} {
		lf, err := StartLocal(t.Context(), 2, Options{StraggleAfter: -1, ValidateEvery: validate}, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rawErrKind.Do(ctx, rawErrSpec{fmt.Sprint("validate-", validate)})
		st := lf.C.Stats()
		if cerr := lf.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil || err.Error() != rawErrText {
			t.Fatalf("ValidateEvery %d: got %q, want %q", validate, err, rawErrText)
		}
		if st.Completed != 1 || st.Divergent != 0 {
			t.Fatalf("ValidateEvery %d: stats=%+v, want one granule completed without divergence", validate, st)
		}
	}
}

// TestFabricWorkerErrorIsFinal proves a worker's error answer resolves
// its granule at once, even one shaped like a broken stream: the granule
// runs once and Submit returns the worker's text verbatim, as a serial
// run memoises the same error.
func TestFabricWorkerErrorIsFinal(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	before := testFlakyCount.Load()
	_, err = lf.C.Submit(context.Background(), "test.flaky", "flaky|1", json.RawMessage(`{}`))
	if err == nil || err.Error() != "flaky link: unexpected EOF" {
		t.Fatalf("got %v, want the worker's error text verbatim", err)
	}
	if runs := testFlakyCount.Load() - before; runs != 1 {
		t.Fatalf("executions=%d, want 1", runs)
	}
	if st := lf.C.Stats(); st.Retried != 0 || st.Completed != 1 {
		t.Fatalf("stats=%+v, want no retries and 1 completion", st)
	}
}

// TestFabricUnknownKind proves a granule for an unregistered kind fails
// with a diagnostic instead of hanging the run.
func TestFabricUnknownKind(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	_, err = lf.C.Submit(context.Background(), "test.nope", "nope|1", json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "unknown granule kind") {
		t.Fatalf("got %v, want unknown-kind error", err)
	}
}

// TestFabricWaitsForFirstWorker proves a coordinator with zero workers
// parks granules until one joins, then drains them.
func TestFabricWaitsForFirstWorker(t *testing.T) {
	lf, err := StartLocal(t.Context(), 0, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		got, err := submitDouble(ctx, t, lf.C, "test.double", 5, 0)
		if err == nil && got != 10 {
			err = fmt.Errorf("got %d, want 10", got)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("granule resolved with no workers: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lf.AddWorker(WorkerOptions{})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("granule not drained after worker join")
	}
}

// TestFabricCancelledIdleWorkerExits cancels an idle worker while its
// coordinator stays up with heartbeats off, so no frame arrives and no
// eviction closes the link: only the worker's own cancellation path can
// unblock its frame read, and StopWorker must return promptly.
func TestFabricCancelledIdleWorkerExits(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1, Heartbeat: -1}, WorkerOptions{Name: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	stopped := make(chan error, 1)
	go func() { stopped <- lf.StopWorker("idle-1") }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled worker still blocked reading from a live coordinator")
	}
}

// TestFabricJoinLeave runs a batch while a worker joins mid-run and
// another leaves mid-run; every granule must still resolve correctly.
func TestFabricJoinLeave(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: 200 * time.Millisecond}, WorkerOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ctx := context.Background()
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := submitDouble(ctx, t, lf.C, "test.sleep", i, 10)
			if err == nil && got != 2*i {
				err = fmt.Errorf("got %d, want %d", got, 2*i)
			}
			errs[i] = err
		}(i)
	}
	second := lf.AddWorker(WorkerOptions{Slots: 2})
	if err := lf.C.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := lf.StopWorker(second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("granule %d: %v", i, err)
		}
	}
}

// TestNilTelemetryWorkerAbandonsMidGranule cancels a worker that runs
// without telemetry (WorkerOptions.Obs == nil) in the middle of a
// granule. The abandon it records goes to the nil WorkerTelemetry,
// which must be the off switch rather than a panic, and the granule
// must resolve on another worker.
func TestNilTelemetryWorkerAbandonsMidGranule(t *testing.T) {
	lf, err := StartLocal(t.Context(), 0, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ctx := t.Context()
	first := lf.AddWorker(WorkerOptions{Slots: 1})
	if err := lf.C.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	testBlockArmed.Store(true)
	type result struct {
		raw json.RawMessage
		err error
	}
	done := make(chan result, 1)
	go func() {
		raw, err := lf.C.Submit(ctx, "test.block", "test.block|abandon", json.RawMessage(`"resolved"`))
		done <- result{raw, err}
	}()
	select {
	case <-testBlockStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("the granule never started")
	}
	if err := lf.StopWorker(first); err != nil {
		t.Fatal(err)
	}
	lf.AddWorker(WorkerOptions{Slots: 1})
	select {
	case r := <-done:
		if r.err != nil || string(r.raw) != `"resolved"` {
			t.Fatalf("granule resolved to %s, %v; want \"resolved\"", r.raw, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned granule never resolved on the second worker")
	}
	if st := lf.C.Stats(); st.Requeued != 1 || st.Completed != 1 {
		t.Fatalf("stats=%+v, want the granule re-queued once and completed once", st)
	}
}

// TestFabricInFlightBudget holds one slow worker and checks the
// coordinator never hands it more than its derived budget: its
// execution slots plus one prefetched granule.
func TestFabricInFlightBudget(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = submitDouble(ctx, t, lf.C, "test.sleep", 100+i, 15)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lf.C.mu.Lock()
		var over int
		for _, w := range lf.C.s.sessions {
			if len(w.inflight) > 2 {
				over = len(w.inflight)
			}
		}
		lf.C.mu.Unlock()
		if over > 0 {
			t.Fatalf("1-slot worker holds %d granules, budget is 2", over)
		}
		st := lf.C.Stats()
		if st.Completed == 8 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if st := lf.C.Stats(); st.Completed != 8 {
		t.Fatalf("completed=%d, want 8", st.Completed)
	}
}

// TestFabricSlotsAreUsed starts one worker with four slots: the
// coordinator must keep all four executing (the fixed budget of 2 it
// had before the budget was derived from the hello ran two) and prefetch
// exactly one behind them.
func TestFabricSlotsAreUsed(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	testPeak.Store(0)
	held := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		runChaosBatch(t, lf, 16, 40)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(time.Millisecond):
			lf.C.mu.Lock()
			for _, w := range lf.C.s.sessions {
				held = max(held, len(w.inflight))
			}
			lf.C.mu.Unlock()
		}
	}
	if peak := testPeak.Load(); peak != 4 {
		t.Errorf("4-slot worker executed at most %d granules at once, want 4", peak)
	}
	if held != 5 {
		t.Errorf("4-slot worker held at most %d granules, want its budget of 5", held)
	}
}

// TestKindDoAllKeepsTheWholeBatchOutstanding is the request side of the
// match: with a coordinator active a batch is bounded by the fleet's
// slots, not by this process's -workers; with none, by -workers.
func TestKindDoAllKeepsTheWholeBatchOutstanding(t *testing.T) {
	// An earlier run in this process (go test -count=N) filled the
	// kinds' memos; without a reset every Do below is a hit and nothing
	// executes.
	parallel.ResetAllMemos()
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	const sleepMS = 40
	specs := func(base, n int) []batchSpec {
		out := make([]batchSpec, n)
		for i := range out {
			out[i] = batchSpec{X: base + i, MS: sleepMS}
		}
		return out
	}
	check := func(base int, got []int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 2*(base+i) {
				t.Fatalf("result %d = %d, want %d (input order)", i, v, 2*(base+i))
			}
		}
	}

	// No coordinator: local execution keeps its -workers bound.
	testPeak.Store(0)
	got, err := batchKind.DoAll(context.Background(), specs(1000, 8))
	check(1000, got, err)
	if peak := testPeak.Load(); peak != 2 {
		t.Errorf("in-process DoAll ran %d jobs at once, want Workers() = 2", peak)
	}

	// 4 workers x 2 slots: 32 granules take about 32/8 sleeps, not 32/2.
	lf, err := StartLocal(t.Context(), 4, Options{StraggleAfter: -1}, WorkerOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	testPeak.Store(0)
	start := time.Now()
	got, err = batchKind.DoAll(context.Background(), specs(2000, 32))
	elapsed := time.Since(start)
	check(2000, got, err)
	if peak := testPeak.Load(); peak != 8 {
		t.Errorf("sharded DoAll ran %d granules at once, want the fleet's 8 slots", peak)
	}
	if limit := 32 / 2 * sleepMS * time.Millisecond; elapsed >= limit {
		t.Errorf("sharded DoAll took %v, want well under the %v a 2-outstanding driver needs", elapsed, limit)
	}
	if st := lf.C.Stats(); st.Submitted != 32 || st.Duplicated != 0 {
		t.Errorf("stats=%+v, want 32 granules submitted, none duplicated", st)
	}

	// The lowest-indexed error wins, whatever order the fleet answers in.
	_, err = failKind.DoAll(context.Background(), []failSpec{{"b"}, {"a"}})
	if err == nil || err.Error() != "b" {
		t.Errorf("DoAll error = %v, want the first spec's", err)
	}
}

// TestFabricCacheHits proves Submit is single-flight over running
// work: concurrent Submits under one key while its granule runs share
// one execution, each joiner counted as a cache hit. Once the granule
// resolves the coordinator forgets it (each Kind's memo answers repeats
// before they reach Submit), so a later Submit runs it again.
func TestFabricCacheHits(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	const joiners = 3
	before := testExecCount.Load()
	errs := make(chan error, 1+joiners)
	submit := func() {
		raw, err := lf.C.Submit(context.Background(), "test.sleep", "test.sleep|8|300", json.RawMessage(`{"X":8,"MS":300}`))
		if err == nil && string(raw) != "16" {
			err = fmt.Errorf("got %s, want 16", raw)
		}
		errs <- err
	}
	go submit()
	for lf.C.Stats().Submitted == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < joiners; i++ {
		go submit()
	}
	for i := 0; i < 1+joiners; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if execs := testExecCount.Load() - before; execs != 1 {
		t.Fatalf("executions=%d, want 1 shared by %d Submits", execs, 1+joiners)
	}
	if st := lf.C.Stats(); st.Submitted != 1 || st.CacheHits != joiners || st.Completed != 1 {
		t.Fatalf("stats=%+v, want 1 granule submitted, %d cache hits, 1 completion", st, joiners)
	}
	lf.C.mu.Lock()
	known := len(lf.C.s.byKey)
	lf.C.mu.Unlock()
	if known != 0 {
		t.Fatalf("%d resolved granules still known by key", known)
	}
	submit()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if st := lf.C.Stats(); st.Submitted != 2 || st.CacheHits != joiners {
		t.Fatalf("stats=%+v after the resolved key's resubmit, want a second granule and no new hit", st)
	}
}

// TestFabricSameNameReplacesSession: health, votes and quarantine are
// keyed by worker name, so a hello naming a connected worker must
// replace that session — its granule re-queued onto the newcomer —
// rather than join as a second worker sharing one identity.
func TestFabricSameNameReplacesSession(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{StraggleAfter: -1, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := admit(t, c, "rack3")
	result := make(chan error, 1)
	go func() {
		raw, err := c.Submit(context.Background(), "test.double", "rack3|4", json.RawMessage(`{"X":4}`))
		if err == nil && string(raw) != "8" {
			err = fmt.Errorf("got %s, want 8", raw)
		}
		result <- err
	}()
	if m, err := ReadFrame(first); err != nil || m.Type != MsgWork {
		t.Fatalf("first session: %v / %+v, want the work frame", err, m)
	}

	second := admit(t, c, "rack3")
	work, err := ReadFrame(second)
	if err != nil || work.Type != MsgWork || work.Key != "rack3|4" {
		t.Fatalf("second session: %v / %+v, want the re-queued granule", err, work)
	}
	if m, err := ReadFrame(first); err == nil {
		t.Fatalf("replaced session still open: read %+v", m)
	}
	if st := c.Stats(); st.Workers != 1 || st.Joined != 2 || st.Died != 1 || st.Requeued != 1 {
		t.Fatalf("stats=%+v, want one live worker after one replaced session and one re-queue", st)
	}
	if err := WriteFrame(second, Msg{Type: MsgResult, ID: work.ID, Value: json.RawMessage("8")}); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}

// TestFabricRejectsBadHandshake proves a wrong-protocol hello, a hello
// announcing a slot count outside 1..maxSlots (it would size the
// worker's budget and outbox) and a non-hello first frame are all turned
// away without disturbing the coordinator.
func TestFabricRejectsBadHandshake(t *testing.T) {
	lf, err := StartLocal(t.Context(), 1, Options{StraggleAfter: -1}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for _, bad := range []Msg{
		{Type: MsgHello, Proto: ProtoVersion + 1, Worker: "future"},
		{Type: MsgHello, Proto: 1, Worker: "past", Slots: 1},
		{Type: MsgHello, Proto: 2, Worker: "cache-probing", Slots: 1},
		{Type: MsgHello, Proto: 3, Worker: "warm-up-in-window", Slots: 1},
		{Type: MsgHello, Proto: ProtoVersion, Worker: "no-slots"},
		{Type: MsgHello, Proto: ProtoVersion, Worker: "negative", Slots: -1},
		{Type: MsgHello, Proto: ProtoVersion, Worker: "huge", Slots: 1 << 31},
		{Type: MsgResult, ID: 1},
	} {
		conn, err := net.Dial("tcp", lf.C.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(conn, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(conn); err == nil {
			t.Fatalf("handshake %+v: coordinator answered, want connection drop", bad)
		}
		_ = conn.Close()
	}
	if st := lf.C.Stats(); st.Joined != 1 || st.Workers != 1 {
		t.Fatalf("stats after rejects: %+v, want the one real worker only", st)
	}
}

// TestFabricHandshakeDeadline: a hello whose length field promises bytes
// that never come — a header damaged in flight, but still within the
// handshake cap — is dropped once the handshake deadline passes,
// instead of holding its connection open with neither end heartbeating
// yet.
func TestFabricHandshakeDeadline(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{StraggleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := EncodeFrame(Msg{Type: MsgHello, Proto: ProtoVersion, Worker: "w", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(frame[8:], maxHandshakeFrame)
	start := time.Now()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(start.Add(3 * handshakeWithin))
	if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("got %v after %v, want the coordinator to drop the connection", err, time.Since(start))
	}
	if waited := time.Since(start); waited < handshakeWithin {
		t.Fatalf("dropped after %v, before the %v deadline", waited, handshakeWithin)
	}
}

// TestFabricHandshakeCapRefusesAtOnce: a hello header declaring more
// than any hello can hold — 33,554,449 bytes, what one flipped bit made
// of a real hello's length — is refused as soon as the header arrives,
// not after handshakeWithin, while the sender keeps the connection open.
func TestFabricHandshakeCapRefusesAtOnce(t *testing.T) {
	c, err := Listen("127.0.0.1:0", Options{StraggleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := EncodeFrame(Msg{Type: MsgHello, Proto: ProtoVersion, Worker: "w", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(frame[8:], 33_554_449)
	start := time.Now()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(start.Add(handshakeWithin))
	if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("got %v after %v, want the coordinator to drop the connection", err, time.Since(start))
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("oversized hello refused after %v, want at once", waited)
	}
}

// TestWorkerHandshakeCap: the worker reads the welcome under the same
// cap, and refuses before dialling a name that would not fit a hello.
func TestWorkerHandshakeCap(t *testing.T) {
	err := RunWorker(context.Background(), "127.0.0.1:1", WorkerOptions{Name: strings.Repeat("n", maxWorkerName+1)})
	if !errors.Is(err, ErrWorkerName) || !errors.Is(err, ErrDial) {
		t.Fatalf("RunWorker with a %d-byte name: %v, want ErrWorkerName and ErrDial", maxWorkerName+1, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	exited := make(chan error, 1)
	go func() {
		exited <- RunWorker(context.Background(), ln.Addr().String(), WorkerOptions{Name: strings.Repeat("n", maxWorkerName)})
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The longest name still fits: its hello reads under the cap.
	if m, err := readHandshake(conn); err != nil || len(m.Worker) != maxWorkerName {
		t.Fatalf("maximal hello: %v (name %d bytes)", err, len(m.Worker))
	}
	welcome, err := EncodeFrame(Msg{Type: MsgWelcome, Proto: ProtoVersion})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(welcome[8:], 33_554_449)
	start := time.Now()
	if _, err := conn.Write(welcome); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if !errors.Is(err, resilience.ErrCorruptCheckpoint) {
			t.Fatalf("worker exit: %v, want the oversized welcome refused", err)
		}
		if waited := time.Since(start); waited > 500*time.Millisecond {
			t.Fatalf("oversized welcome refused after %v, want at once", waited)
		}
	case <-time.After(2 * handshakeWithin):
		t.Fatal("worker never refused the oversized welcome")
	}
}

// fakeSession accepts one RunWorker connection on a loopback listener
// and answers its hello with a welcome assigning pingMS; the returned
// channel yields RunWorker's result.
func fakeSession(t *testing.T, slots int, pingMS int64) (net.Conn, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	exited := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { exited <- RunWorker(ctx, ln.Addr().String(), WorkerOptions{Slots: slots}) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if m, err := ReadFrame(conn); err != nil || m.Type != MsgHello || m.Slots != slots {
		t.Fatalf("handshake: %v / %+v", err, m)
	}
	if err := WriteFrame(conn, Msg{Type: MsgWelcome, Proto: ProtoVersion, PingMS: pingMS}); err != nil {
		t.Fatal(err)
	}
	return conn, exited
}

// sleepWork is a test.sleep work frame.
func sleepWork(id uint64, ms int) Msg {
	return Msg{Type: MsgWork, ID: id, Kind: "test.sleep", Key: fmt.Sprint("sleep|", id),
		Spec: json.RawMessage(fmt.Sprintf(`{"X":%d,"MS":%d}`, id, ms))}
}

// TestWorkerExecutorQueueOverflowDropsSession: a coordinator that sends
// more work than the worker's slots and queue can hold has broken the
// dispatch budget, and the worker drops the session with an error
// instead of queueing without bound.
func TestWorkerExecutorQueueOverflowDropsSession(t *testing.T) {
	conn, exited := fakeSession(t, 1, 0)
	// One frame may be executing and sessionBuffer(1) queued: one more
	// always overflows.
	for id := uint64(1); id <= uint64(sessionBuffer(1)+2); id++ {
		if err := WriteFrame(conn, sleepWork(id, 10_000)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-exited:
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("past the %d-frame queue of a 1-slot worker", sessionBuffer(1))) {
			t.Fatalf("worker exit: %v, want the queue overflow", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept the session past its queue")
	}
}

// TestWorkerExecutorsKeepReadingWhileBusy: with every slot busy and a
// granule queued behind it, the read loop still drains pongs, so a
// heartbeat cadence far shorter than the granules does not make the
// worker call its own session wedged; every slot runs at once, and each
// granule answers.
func TestWorkerExecutorsKeepReadingWhileBusy(t *testing.T) {
	const slots, pingMS, granuleMS = 2, 10, 400 // wedged after 16 silent pings: 160ms
	conn, exited := fakeSession(t, slots, pingMS)
	testPeak.Store(0)
	for i := 1; i <= budget(slots); i++ {
		if err := WriteFrame(conn, sleepWork(uint64(i), granuleMS)); err != nil {
			t.Fatal(err)
		}
	}
	results := map[uint64]bool{}
	for len(results) < budget(slots) {
		m, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d results: %v (the worker dropped a busy session)", len(results), err)
		}
		switch m.Type {
		case MsgPing:
			if err := WriteFrame(conn, Msg{Type: MsgPong, ID: m.ID}); err != nil {
				t.Fatal(err)
			}
		case MsgResult:
			if m.Failed || string(m.Value) != fmt.Sprint(2*m.ID) {
				t.Fatalf("granule %d: %+v", m.ID, m)
			}
			results[m.ID] = true
		}
	}
	if peak := testPeak.Load(); peak != slots {
		t.Fatalf("%d granules ran at once on %d slots", peak, slots)
	}
	_ = conn.Close()
	if err := <-exited; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestWorkerDialRetry proves a worker launched before its coordinator
// connects once the listener appears.
func TestWorkerDialRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // free the port; the coordinator will take it back

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		done <- RunWorker(ctx, addr, WorkerOptions{DialRetry: 10 * time.Second})
	}()
	time.Sleep(100 * time.Millisecond)
	c, err := Listen(addr, Options{StraggleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := c.WaitWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestRetryLoopsPaceThroughThePolicy keeps the fleet's two redial
// loops, dialRetry and lpmworker's session redial, paced by
// fleet.RetryPolicy (capped backoff, seeded jitter) rather than a time
// primitive, and the fleet layers free of math/rand, so a reconnect
// schedule replays bit-identically for a given seed.
func TestRetryLoopsPaceThroughThePolicy(t *testing.T) {
	for _, site := range []struct{ file, fn, dial string }{
		{"worker.go", "dialRetry", "DialContext"},
		{"../../cmd/lpmworker/main.go", "run", "RunWorker"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), site.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		loops := 0
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Name.Name != site.fn {
				return true
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || !callsSelector(loop.Body, func(x ast.Expr, sel string) bool { return sel == site.dial }) {
					return true
				}
				loops++
				if callsSelector(loop.Body, func(x ast.Expr, sel string) bool {
					id, ok := x.(*ast.Ident)
					return ok && id.Name == "time" && (sel == "Sleep" || sel == "After" || sel == "NewTimer" || sel == "Tick")
				}) {
					t.Errorf("%s: %s paces its %s loop with a time primitive", site.file, site.fn, site.dial)
				}
				if !callsSelector(loop.Body, func(x ast.Expr, sel string) bool {
					id, ok := x.(*ast.Ident)
					return sel == "Sleep" && !(ok && id.Name == "time")
				}) {
					t.Errorf("%s: %s's %s loop does not sleep through the retry policy", site.file, site.fn, site.dial)
				}
				return false
			})
			return false
		})
		if loops != 1 {
			t.Errorf("%s: found %d loops in %s calling %s, want 1", site.file, loops, site.fn, site.dial)
		}
	}
	for _, dir := range []string{".", "../ctrl", "../../cmd/lpmworker"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "math/rand") {
					t.Errorf("%s imports %s; retry jitter comes from the seeded fleet.RetryPolicy", file, path)
				}
			}
		}
	}
}

// callsSelector reports whether body calls some x.sel(...) with
// match(x, sel).
func callsSelector(body ast.Node, match func(x ast.Expr, sel string) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel.X, sel.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestWorkerCancelledMidHandshakeExits: a worker cancelled while it
// waits for its welcome exits with nil, as one cancelled after it does.
// The coordinator counts a worker at its hello, before the worker has
// read the welcome, so a fleet closed as soon as WaitWorkers returns
// can cancel a worker here.
func TestWorkerCancelledMidHandshakeExits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, ln.Addr().String(), WorkerOptions{Name: "w"}) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if m, err := ReadFrame(conn); err != nil || m.Type != MsgHello {
		t.Fatalf("got %v / %+v, want the hello", err, m)
	}
	cancel() // no welcome is ever sent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker cancelled mid-handshake: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker cancelled mid-handshake still running")
	}
}

// TestFabricResumedCountersMatchStats resumes a coordinator from a
// journal holding one quarantined worker, among the requeue,
// join/submit/issue/gone/complete and "fallback" records older
// coordinators wrote — framed byte for byte as they wrote them, so a
// journal written by an older build still opens — and checks Stats
// carries the resumed state: the quarantine counted and every granule
// completed.
func TestFabricResumedCountersMatchStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.journal")
	var data []byte
	for _, r := range []string{
		`{"seq":1,"tick":0,"op":"join","worker":"liar"}`,
		`{"seq":2,"tick":0,"op":"submit","kind":"test.double","key":"test.double|0|0"}`,
		`{"seq":3,"tick":0,"op":"issue","worker":"liar","kind":"test.double","key":"test.double|0|0"}`,
		`{"seq":4,"tick":0,"op":"requeue","kind":"test.double","key":"test.double|0|0","retries":2,"detail":"transient: reset"}`,
		`{"seq":5,"tick":0,"op":"quarantine","worker":"liar","detail":"divergent answer"}`,
		`{"seq":6,"tick":0,"op":"gone","worker":"liar","detail":"quarantined"}`,
		`{"seq":7,"tick":0,"op":"fallback","detail":"no workers, executing in-process"}`,
		`{"seq":8,"tick":0,"op":"complete","kind":"test.double","key":"test.double|0|0"}`,
	} {
		data = append(data, resilience.EncodeEnvelope([]byte(r))...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Listen("127.0.0.1:0", Options{StraggleAfter: -1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { _ = RunWorker(ctx, c.Addr(), WorkerOptions{Name: "honest"}) }()
	for i := 0; i < 3; i++ {
		if _, err := submitDouble(ctx, t, c, "test.double", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Quarantined != 1 || st.Completed != 3 {
		t.Fatalf("stats=%+v, want the carried quarantine and 3 completions", st)
	}
	if got := quarantined(c); len(got) != 1 || got[0] != "liar" {
		t.Fatalf("quarantine roster %v, want [liar]", got)
	}
}

// TestFabricJournalHoldsOnlyWhatRecoveryFolds runs journaled sweeps of
// eight granules with every other one cross-validated and checks the
// journal against what RecoverState folds: a fault-free sweep appends
// nothing, nor does one whose granules all answer with an error, and one
// lie, outvoted by two honest workers, appends exactly one quarantine.
func TestFabricJournalHoldsOnlyWhatRecoveryFolds(t *testing.T) {
	const granules = 8
	for _, tc := range []struct {
		name    string
		kind    string
		workers int
		fault   faultinject.Rule
		want    []string
	}{
		{"no faults", "test.double", 2, faultinject.Rule{}, nil},
		// Both copies of a validated granule return the same error: the
		// votes agree, and nobody is blamed.
		{"worker errors", "test.fail", 2, faultinject.Rule{}, nil},
		// Granule 0's first copy lies; the third worker breaks the tie.
		{"one lie", "test.double", 3,
			faultinject.Rule{Point: "fabric.worker.lie", Match: "test.double", Msg: "lie"},
			[]string{fleet.OpQuarantine}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault.Point != "" {
				defer faultinject.Arm(faultinject.NewPlan(43, tc.fault))()
			}
			path := filepath.Join(t.TempDir(), "sched.journal")
			lf, err := StartLocal(t.Context(), tc.workers, Options{StraggleAfter: -1, ValidateEvery: 2, JournalPath: path},
				WorkerOptions{Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := lf.C.WaitWorkers(ctx, tc.workers); err != nil {
				t.Fatal(err)
			}
			// One at a time, so granule i has id i.
			for i := 0; i < granules; i++ {
				key := fmt.Sprintf("%s|%d", tc.kind, i)
				if tc.kind == "test.fail" {
					spec, _ := json.Marshal(map[string]string{"Text": key + " failed"})
					if _, err := lf.C.Submit(ctx, tc.kind, key, spec); err == nil || err.Error() != key+" failed" {
						t.Fatalf("granule %d: %v, want the error %q", i, err, key+" failed")
					}
					continue
				}
				spec, _ := json.Marshal(map[string]int{"X": i})
				raw, err := lf.C.Submit(ctx, tc.kind, key, spec)
				if err != nil {
					t.Fatalf("granule %d: %v", i, err)
				}
				if want := serialValue(t, tc.kind, i, 0); string(raw) != string(want) {
					t.Fatalf("granule %d: %s, want %s", i, raw, want)
				}
			}
			_ = lf.Close()
			entries, err := fleet.ReplayJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			var ops []string
			for _, e := range entries {
				ops = append(ops, e.Op)
			}
			if strings.Join(ops, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("journal holds %+v, want ops %v", entries, tc.want)
			}
		})
	}
}

// BenchmarkDispatch pins the cost of the placement pick where it is
// paid: under the coordinator mutex, once per result. 64 workers of 1-4
// slots are kept at budget over a 4,096-granule backlog; one iteration
// is a submission, a result frame (resolve, free the holder, dispatch
// the next granule to the least-loaded worker) and the work frame that
// dispatch issues.
func BenchmarkDispatch(b *testing.B) {
	const workers, backlog = 64, 4096
	c, err := Listen("127.0.0.1:0", Options{StraggleAfter: -1, Heartbeat: -1, TickEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	submit := func() {
		g := &granule{id: c.s.nextID, kind: "bench", key: fmt.Sprint(c.s.nextID), done: make(chan struct{})}
		c.s.nextID++
		c.s.byKey[g.key] = g
		c.s.enqueue(g)
	}
	c.mu.Lock()
	for i := 0; i < workers; i++ {
		near, far := net.Pipe()
		defer far.Close()
		c.s.hello(&session{name: fmt.Sprint("w", i), slots: 1 + i%4,
			link: &link{conn: near, outbox: make(chan Msg, 8)}})
		for k := 0; k < budget(1+i%4); k++ {
			submit()
		}
	}
	for i := 0; i < backlog; i++ {
		submit()
	}
	c.s.dispatch()
	c.mu.Unlock()
	for _, w := range c.s.sessions {
		for len(w.link.outbox) > 0 {
			<-w.link.outbox
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := c.s.sessions[i%workers]
		var id uint64
		for id = range w.inflight {
			break
		}
		c.mu.Lock()
		submit()
		c.s.result(w, Msg{Type: MsgResult, ID: id, Value: json.RawMessage("1")})
		c.mu.Unlock()
		if m := <-w.link.outbox; m.Type != MsgWork {
			b.Fatalf("iteration %d: %q frame, want the next work frame", i, m.Type)
		}
	}
	b.StopTimer()
	if c.s.stats.Completed != b.N || len(c.s.pending) != backlog {
		b.Fatalf("completed=%d pending=%d, want %d and a steady backlog of %d", c.s.stats.Completed, len(c.s.pending), b.N, backlog)
	}
}

// quarantined reads the coordinator's quarantine roster, sorted.
func quarantined(c *Coordinator) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for name := range c.s.until {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
