package ctrl

// Unit tests for the control plane: scheduler budgets, cancellation,
// hub ring backpressure, SSE framing, and the lpm-ctrl/v1 HTTP surface.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
)

// stubRunner publishes `windows` timeline windows, then blocks until
// released (or returns immediately when release is nil). It records
// starts so tests can observe scheduling order.
type stubRunner struct {
	windows int
	delay   time.Duration // pause between windows (0 = publish as fast as possible)
	release chan struct{} // nil = finish immediately
	fail    bool

	mu      sync.Mutex
	started []string
}

func (s *stubRunner) Run(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error) {
	s.mu.Lock()
	s.started = append(s.started, spec.Workload)
	s.mu.Unlock()
	hub.SetMeta(512)
	reg := obs.NewRegistry()
	windows := reg.Counter("stub.windows")
	for i := 0; i < s.windows; i++ {
		w := timeseries.Window{Index: i, Start: uint64(i) * 512, End: uint64(i+1) * 512}
		w.Derived.LPMR1 = 1 + float64(i)
		hub.Publish(w)
		windows.Inc()
		hub.PublishSnapshot(reg.Snapshot())
		if s.delay > 0 {
			select {
			case <-time.After(s.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.fail {
		return nil, fmt.Errorf("stub: injected failure")
	}
	return json.RawMessage(`{"schema":"stub"}`), nil
}

func (s *stubRunner) startedRuns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.started...)
}

// waitState polls until the run reaches state or the deadline passes.
func waitState(t *testing.T, reg *Registry, id string, state RunState) RunStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := reg.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == state {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := reg.Get(id)
	t.Fatalf("run %s never reached %s (now %s)", id, state, st.State)
	return RunStatus{}
}

func TestRegistryLifecycle(t *testing.T) {
	run := &stubRunner{windows: 3}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 2})

	st, err := reg.Submit(RunSpec{Workload: "403.gcc"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "r-1" || st.API != APIVersion || st.Spec.Tenant != "default" {
		t.Fatalf("submit status: %+v", st)
	}
	st = waitState(t, reg, "r-1", StateDone)
	if st.Windows != 3 || st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatalf("done status: %+v", st)
	}
	doc, state, ok := reg.resultDoc("r-1")
	if !ok || state != StateDone || !strings.Contains(string(doc), "stub") {
		t.Fatalf("result: ok=%v state=%s doc=%s", ok, state, doc)
	}
	if l := reg.List(); len(l.Runs) != 1 || l.API != APIVersion {
		t.Fatalf("list: %+v", l)
	}
	if _, err := reg.Submit(RunSpec{Workload: "no.such"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := reg.Submit(RunSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	reg.Drain()

	// A failing runner ends its run failed, with the runner's error text.
	bad := NewRegistry(context.Background(), Config{Runner: &stubRunner{windows: 1, fail: true}})
	if _, err := bad.Submit(RunSpec{Workload: "403.gcc"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitState(t, bad, "r-1", StateFailed); st.Error != "stub: injected failure" {
		t.Fatalf("failed run error: %q", st.Error)
	}
	bad.Drain()
}

func TestTenantBudgetScheduling(t *testing.T) {
	release := make(chan struct{})
	run := &stubRunner{windows: 1, release: release}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 4, TenantBudget: 1})

	// Two runs for tenant acme: the second must queue behind the budget.
	for i := 0; i < 2; i++ {
		if _, err := reg.Submit(RunSpec{Workload: "403.gcc", Tenant: "acme"}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// A different tenant is not throttled by acme's budget.
	if _, err := reg.Submit(RunSpec{Workload: "429.mcf", Tenant: "beta"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, reg, "r-1", StateRunning)
	waitState(t, reg, "r-3", StateRunning)
	if st, _ := reg.Get("r-2"); st.State != StatePending {
		t.Fatalf("second acme run should be pending, is %s", st.State)
	}
	close(release)
	waitState(t, reg, "r-1", StateDone)
	waitState(t, reg, "r-2", StateDone)
	waitState(t, reg, "r-3", StateDone)
	reg.Drain()
}

func TestCancelPendingAndRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	run := &stubRunner{windows: 1, release: release}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 1})

	reg.Submit(RunSpec{Workload: "403.gcc"})
	reg.Submit(RunSpec{Workload: "403.gcc"})
	waitState(t, reg, "r-1", StateRunning)

	// r-2 is pending: cancel resolves it immediately and never starts it.
	if st, err := reg.Cancel("r-2"); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel pending: %+v, %v", st, err)
	}
	// r-1 is running: cancel cancels its context; the stub returns
	// ctx.Err() and the run resolves cancelled.
	if _, err := reg.Cancel("r-1"); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st := waitState(t, reg, "r-1", StateCancelled)
	if st.Error == "" {
		t.Fatalf("cancelled run carries no cause: %+v", st)
	}
	if _, err := reg.Cancel("r-99"); err == nil {
		t.Fatal("cancelling unknown run did not error")
	}
	reg.Drain()
	if got := run.startedRuns(); len(got) != 1 {
		t.Fatalf("cancelled-pending run was started: %v", got)
	}
}

func TestHubRingDropsOldest(t *testing.T) {
	hub := NewHub()
	sub := hub.Subscribe(4)
	for i := 0; i < 10; i++ {
		hub.Publish(timeseries.Window{Index: i})
	}
	hub.Done()
	// Ring of 4 after 11 events (10 windows + done): the first seven
	// dropped; the survivors are windows 7, 8, 9 and done.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e, dropped, ok := sub.Next(ctx)
	if !ok || e.Type != "window" || e.Window.Index != 7 || dropped != 7 {
		t.Fatalf("first event: %+v dropped=%d ok=%v", e, dropped, ok)
	}
	for _, wantIdx := range []int{8, 9} {
		e, dropped, ok = sub.Next(ctx)
		if !ok || dropped != 0 || e.Window.Index != wantIdx {
			t.Fatalf("event: %+v dropped=%d ok=%v want index %d", e, dropped, ok, wantIdx)
		}
	}
	if e, _, _ = sub.Next(ctx); e.Type != "done" {
		t.Fatalf("final event: %+v", e)
	}
	sub.Close()
	if drops := hub.dropped.Load(); drops != 7 {
		t.Fatalf("drop accounting: %d, want 7", drops)
	}
}

func TestHubLateSubscriberCatchesUp(t *testing.T) {
	hub := NewHub()
	hub.Publish(timeseries.Window{Index: 0})
	hub.Publish(timeseries.Window{Index: 1})
	hub.Done()
	sub := hub.Subscribe(0)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var types []string
	for {
		e, _, ok := sub.Next(ctx)
		if !ok {
			t.Fatal("subscription ended before done event")
		}
		types = append(types, e.Type)
		if e.Type == "done" {
			break
		}
	}
	if strings.Join(types, ",") != "window,window,done" {
		t.Fatalf("catch-up sequence: %v", types)
	}
}

func TestHubSubscribeAfterDeduplicates(t *testing.T) {
	hub := NewHub()
	for i := 0; i < 5; i++ {
		hub.Publish(timeseries.Window{Index: i})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// First session: read three windows, remember the last seq seen.
	sub := hub.Subscribe(0)
	var last uint64
	for i := 0; i < 3; i++ {
		e, _, ok := sub.Next(ctx)
		if !ok || e.Type != "window" || e.Window.Index != i {
			t.Fatalf("event %d: %+v ok=%v", i, e, ok)
		}
		if e.Seq <= last {
			t.Fatalf("seq not increasing: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	sub.Close()

	// Reconnect mid-history: catch-up must resume strictly after the
	// last seq — windows 0..2 never replay.
	hub.Done()
	sub2 := hub.SubscribeAfter(0, last)
	defer sub2.Close()
	var got []int
	for {
		e, _, ok := sub2.Next(ctx)
		if !ok {
			t.Fatal("subscription ended before done")
		}
		if e.Seq <= last {
			t.Fatalf("duplicated event seq %d (already saw through %d)", e.Seq, last)
		}
		last = e.Seq
		if e.Type == "done" {
			break
		}
		got = append(got, e.Window.Index)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("resumed windows: %v, want [3 4]", got)
	}
}

func TestSSEReconnectResumesAfterLastEventID(t *testing.T) {
	run := &stubRunner{windows: 5}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 1})
	srv := httptest.NewServer(NewAPIMux(reg))
	defer srv.Close()
	defer reg.Drain()
	if _, err := reg.Submit(RunSpec{Workload: "403.gcc"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, reg, "r-1", StateDone)

	// readSSE drains one stream, recording every id: line, until done or
	// maxWindows window events arrive.
	readSSE := func(lastEventID string, maxWindows int) (ids []uint64, sawDone bool) {
		req, err := http.NewRequest("GET", srv.URL+"/api/v1/runs/r-1/events", nil)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET events: %v", err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		windows := 0
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				var id uint64
				fmt.Sscanf(v, "%d", &id)
				ids = append(ids, id)
			}
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				switch ev {
				case "done":
					sawDone = true
					return ids, sawDone
				case "window":
					windows++
				}
			}
			// The event: line precedes the id: line, so only disconnect
			// at the blank line terminating a complete event — leaving
			// mid-event would drop the id the reconnect resumes from.
			if line == "" && maxWindows > 0 && windows >= maxWindows {
				return ids, sawDone
			}
		}
		return ids, sawDone
	}

	// First session reads two windows then "disconnects".
	first, _ := readSSE("", 2)
	if len(first) < 2 {
		t.Fatalf("first session saw %d ids, want >=2", len(first))
	}
	last := first[len(first)-1]

	// Reconnect with Last-Event-ID: no id at or below `last` may appear.
	resumed, sawDone := readSSE(fmt.Sprint(last), 0)
	if !sawDone {
		t.Fatal("resumed session never saw done")
	}
	// 5 windows carry ids 1..5 (done is id-less); the resume starts
	// after `last`.
	if want := 5 - int(last); len(resumed) != want {
		t.Fatalf("resumed session saw %d ids (%v), want %d", len(resumed), resumed, want)
	}
	prev := last
	for _, id := range resumed {
		if id <= prev {
			t.Fatalf("resumed stream replayed or reordered id %d after %d", id, prev)
		}
		prev = id
	}

	// A malformed Last-Event-ID is a 400, not a silent full replay.
	req, _ := http.NewRequest("GET", srv.URL+"/api/v1/runs/r-1/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPAPI(t *testing.T) {
	release := make(chan struct{})
	run := &stubRunner{windows: 5, release: release}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 2})
	srv := httptest.NewServer(NewAPIMux(reg))
	defer srv.Close()
	defer reg.Drain()

	// Submit over HTTP.
	resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json",
		strings.NewReader(`{"workload":"403.gcc","tenant":"acme"}`))
	if err != nil {
		t.Fatalf("POST runs: %v", err)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID != "r-1" {
		t.Fatalf("submit: status=%d %+v", resp.StatusCode, st)
	}

	// Bad spec is a 400 with the JSON error envelope.
	resp, err = http.Post(srv.URL+"/api/v1/runs", "application/json",
		strings.NewReader(`{"workload":"no.such"}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct{ API, Error string }
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || apiErr.API != APIVersion {
		t.Fatalf("bad spec: status=%d %+v", resp.StatusCode, apiErr)
	}

	// SSE: windows stream as they land, then done.
	sseResp, err := http.Get(srv.URL + "/api/v1/runs/r-1/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	close(release)
	sc := bufio.NewScanner(sseResp.Body)
	var events []string
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, ev)
			if ev == "done" {
				break
			}
		}
	}
	if len(events) != 6 || events[0] != "window" || events[5] != "done" {
		t.Fatalf("SSE events: %v", events)
	}

	waitState(t, reg, "r-1", StateDone)

	// Status, list, timeline, per-run metrics, result.
	get := func(path string, wantStatus int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteString("\n")
		}
		return b.String()
	}
	if body := get("/api/v1/runs/r-1", http.StatusOK); !strings.Contains(body, `"state": "done"`) &&
		!strings.Contains(body, `"state":"done"`) {
		t.Fatalf("status body: %s", body)
	}
	if body := get("/api/v1/runs", http.StatusOK); !strings.Contains(body, `"r-1"`) {
		t.Fatalf("list body: %s", body)
	}
	var tl TimelineDoc
	if err := json.Unmarshal([]byte(get("/api/v1/runs/r-1/timeline", http.StatusOK)), &tl); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if tl.Schema != TimelineSchema || !tl.Done || len(tl.Series.Windows) != 5 {
		t.Fatalf("timeline doc: %+v", tl)
	}
	if body := get("/api/v1/runs/r-1/metrics", http.StatusOK); !strings.Contains(body, "lpm_timeline_lpmr1") {
		t.Fatalf("per-run metrics: %s", body)
	}
	if body := get("/api/v1/runs/r-1/result", http.StatusOK); !strings.Contains(body, "stub") {
		t.Fatalf("result: %s", body)
	}
	get("/api/v1/runs/r-99", http.StatusNotFound)

	// Fleet metrics: control-plane series plus run-labeled series.
	fleet := get("/metrics", http.StatusOK)
	for _, want := range []string{
		"# TYPE lpm_ctrl_runs_submitted counter",
		"lpm_ctrl_runs_submitted 1",
		"lpm_ctrl_runs_done 1",
		`run="r-1",tenant="acme"`,
	} {
		if !strings.Contains(fleet, want) {
			t.Fatalf("fleet /metrics lacks %q:\n%s", want, fleet)
		}
	}
}

// TestDoneEventFollowsTerminalState: the SSE `done` event is the
// client's cue to read the run's status and result, so the registry
// must record the terminal state before it publishes `done`.
func TestDoneEventFollowsTerminalState(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	awaitDone := func(ctx context.Context, sub *Subscriber) bool {
		for {
			e, _, ok := sub.Next(ctx)
			if !ok || e.Type == "done" {
				return ok
			}
		}
	}

	// Deterministic half: with the registry lock held, a finishing run
	// cannot record its state — so it must not be able to publish `done`
	// either. (The old order published first and then queued on the lock.)
	run := &stubRunner{release: make(chan struct{})}
	reg := NewRegistry(context.Background(), Config{Runner: run})
	st, err := reg.Submit(RunSpec{Workload: "403.gcc"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	hub, _ := reg.handles(st.ID)
	sub := hub.Subscribe(0)
	reg.mu.Lock()
	close(run.release)
	early, stop := context.WithTimeout(ctx, 100*time.Millisecond)
	published := awaitDone(early, sub)
	stop()
	reg.mu.Unlock()
	if published {
		t.Fatal("done event published before the terminal state could be recorded")
	}
	if !awaitDone(ctx, sub) {
		t.Fatal("stream ended without done")
	}
	sub.Close()

	// Statistical half, as a client sees it: over many instant runs, each
	// followed on its hub, the first status read after `done` has to be
	// terminal — no re-read, no grace period.
	reg = NewRegistry(context.Background(), Config{Runner: &stubRunner{windows: 1}})
	for i := 0; i < 500; i++ {
		st, err := reg.Submit(RunSpec{Workload: "403.gcc"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		hub, _ := reg.handles(st.ID)
		sub := hub.Subscribe(0)
		if !awaitDone(ctx, sub) {
			t.Fatalf("run %s: stream ended without done", st.ID)
		}
		sub.Close()
		got, err := reg.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if doc, _, _ := reg.resultDoc(st.ID); got.State != StateDone || len(doc) == 0 {
			t.Fatalf("run %s: state %q, %d-byte result on the first read after the done event",
				st.ID, got.State, len(doc))
		}
	}
}
