package ctrl

// The run stream: one Hub per run carries the series header, the
// bounded window log, the latest snapshot and the finished flag. These
// tests pin what /timeline, /metrics and SSE read from it, the log
// bound, the finished-hub contract and the cost of a publish, and
// FuzzHub drives interleaved publishers and subscribers against its
// invariants.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
)

func TestHubPublishAndTimeline(t *testing.T) {
	h := NewHub()
	h.SetMeta(128)
	h.Publish(timeseries.Window{Index: 0, Start: 0, End: 128})
	h.Publish(timeseries.Window{Index: 1, Start: 128, End: 256})
	ser, done := h.Timeline()
	if done {
		t.Fatalf("run reported done before Done")
	}
	if len(ser.Windows) != 2 || h.Len() != 2 {
		t.Fatalf("timeline has %d windows, Len %d, want 2", len(ser.Windows), h.Len())
	}
	if ser.Windows[1].End != 256 || ser.Dropped != 0 {
		t.Fatalf("timeline %+v", ser)
	}
	if ser.Width != 128 || ser.Version != timeseries.SeriesVersion {
		t.Fatalf("meta not carried: %+v", ser)
	}
	h.Done()
	if _, done := h.Timeline(); !done {
		t.Fatalf("Done not reported")
	}
	snap := &obs.Snapshot{Version: obs.SnapshotVersion}
	h.PublishSnapshot(snap)
	if h.Snapshot() != snap {
		t.Fatalf("snapshot not stored")
	}
}

func TestHubConcurrentReaders(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			h.Publish(timeseries.Window{Index: i, Start: uint64(i) * 10, End: uint64(i+1) * 10})
		}
		h.Done()
	}()
	go func() {
		defer wg.Done()
		for {
			ser, done := h.Timeline()
			for j, w := range ser.Windows {
				if w.Index != j {
					t.Errorf("torn read: window %d has index %d", j, w.Index)
					return
				}
			}
			if done {
				return
			}
		}
	}()
	wg.Wait()
}

// TestHubPublishSharedKeepsPointer: PublishShared stores the caller's
// window itself in the log, and subscribers read that window.
func TestHubPublishSharedKeepsPointer(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(0)
	defer sub.Close()
	ws := make([]*timeseries.Window, 3)
	for i := range ws {
		ws[i] = &timeseries.Window{Index: i, Start: uint64(i) * 10, End: uint64(i+1) * 10}
		h.PublishShared(ws[i])
	}
	if h.log[1].Window != ws[1] {
		t.Fatal("PublishShared copied the window into the log")
	}
	if e, _, ok := sub.Next(context.Background()); !ok || e.Window != ws[0] {
		t.Fatal("a subscriber read a copy of the window")
	}
}

// TestHubPublishCostIndependentOfSubscribers: subscribers find new
// events when they read, so a publish allocates the same with no
// subscriber as with 64 idle ones.
func TestHubPublishCostIndependentOfSubscribers(t *testing.T) {
	allocs := func(subs int) float64 {
		h := NewHub()
		for i := 0; i < subs; i++ {
			defer h.Subscribe(0).Close()
		}
		w := &timeseries.Window{}
		return testing.AllocsPerRun(1000, func() { h.PublishShared(w) })
	}
	if none, many := allocs(0), allocs(64); many != none {
		t.Fatalf("a publish allocates %v times with 64 subscribers, %v with none", many, none)
	}
}

// TestHubRetentionBounded: a run's stream keeps at most
// timeseries.DefaultMaxWindows windows, the sampler's own bound, however
// long the run. /timeline serves the newest windows and counts the rest
// in dropped; run status still counts every window published.
func TestHubRetentionBounded(t *testing.T) {
	const extra = 904
	n := timeseries.DefaultMaxWindows + extra
	reg := NewRegistry(context.Background(), Config{Runner: &stubRunner{windows: n}})
	srv := httptest.NewServer(NewAPIMux(reg))
	defer srv.Close()
	defer reg.Drain()
	st, err := reg.Submit(RunSpec{Workload: "403.gcc"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitState(t, reg, st.ID, StateDone).Windows; got != n {
		t.Fatalf("status reports %d windows, want %d", got, n)
	}
	resp, err := http.Get(srv.URL + "/api/v1/runs/" + st.ID + "/timeline")
	if err != nil {
		t.Fatalf("GET timeline: %v", err)
	}
	var doc TimelineDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	ws := doc.Series.Windows
	if len(ws) != timeseries.DefaultMaxWindows || doc.Series.Dropped != extra ||
		ws[0].Index != extra || ws[len(ws)-1].Index != n-1 {
		t.Fatalf("timeline holds %d windows [%d..%d], dropped %d; want %d [%d..%d], dropped %d",
			len(ws), ws[0].Index, ws[len(ws)-1].Index, doc.Series.Dropped,
			timeseries.DefaultMaxWindows, extra, n-1, extra)
	}

	// A catch-up from the start reports the evicted events as a gap
	// before the oldest logged one.
	hub, _ := reg.handles(st.ID)
	sub := hub.SubscribeAfter(n+1, 0)
	e, dropped, ok := sub.Next(context.Background())
	sub.Close()
	if !ok || dropped != extra || e.Window.Index != extra {
		t.Fatalf("catch-up from 0: %+v dropped=%d ok=%v, want window %d after %d drops", e, dropped, ok, extra, extra)
	}

	if len(hub.log) != timeseries.DefaultMaxWindows {
		t.Fatalf("log holds %d events, want %d", len(hub.log), timeseries.DefaultMaxWindows)
	}
}

// TestCancelledPendingRunTimelineDone: a run cancelled before it starts
// never runs, so nothing but the cancel can mark its stream finished;
// /timeline must report it done, as SSE does.
func TestCancelledPendingRunTimelineDone(t *testing.T) {
	run := &stubRunner{release: make(chan struct{})}
	reg := NewRegistry(context.Background(), Config{Runner: run, MaxConcurrent: 1})
	srv := httptest.NewServer(NewAPIMux(reg))
	defer srv.Close()
	defer reg.Drain()
	defer close(run.release)
	for i := 0; i < 2; i++ {
		if _, err := reg.Submit(RunSpec{Workload: "403.gcc"}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if st, err := reg.Cancel("r-2"); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel pending run: %+v, %v", st, err)
	}
	resp, err := http.Get(srv.URL + "/api/v1/runs/r-2/timeline")
	if err != nil {
		t.Fatalf("GET timeline: %v", err)
	}
	var doc TimelineDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if !doc.Done {
		t.Fatalf("cancelled run's timeline is not done: %+v", doc)
	}
}

// TestSSEFinishedRunResumePastEnd: a client resuming a finished run with
// a Last-Event-ID at or past its end — say one from before a server
// restart, since run ids restart at r-1 — receives `done` rather than
// waiting for events that will never come.
func TestSSEFinishedRunResumePastEnd(t *testing.T) {
	h := NewHub()
	h.Publish(timeseries.Window{Index: 0})
	h.Done()
	srv := httptest.NewServer(SSEHandler(h))
	defer srv.Close()
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, last := range []string{"2", "10"} {
		req, err := http.NewRequest("GET", srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", last)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("GET events: %v", err)
		}
		var events []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events = append(events, ev)
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil || strings.Join(events, ",") != "done" {
			t.Fatalf("Last-Event-ID %s: events %v, err %v; want [done]", last, events, err)
		}
	}
}

// FuzzHub interleaves publishes (new windows, bursts past the log
// bound), snapshots, Done, subscriptions resuming after arbitrary
// sequence numbers, reads and closes, and checks the stream's invariants
// after every step.
func FuzzHub(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 5, 0, 2, 4, 0, 3, 1})
	f.Add([]byte{3, 0, 7, 6, 4, 0, 3, 9, 3, 3, 200, 5, 1, 5, 0})
	f.Add([]byte{6, 0, 6, 3, 3, 5, 0, 0, 0, 1, 2, 3, 0, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := &hubFuzz{t: t, h: NewHub(), data: data}
		for steps := 0; len(z.data) > 0 && steps < 200; steps++ {
			z.step()
			z.check()
		}
		// Drain every open subscriber: a finished hub's must end on done.
		for _, s := range z.subs {
			for !s.closed && z.next(s) {
			}
			if z.h.done && !s.closed && !s.sawDone {
				t.Fatalf("subscriber after %d never received done", s.after)
			}
		}
	})
}

// hubFuzz is one FuzzHub execution: the hub, its subscribers and the
// model the checks compare against.
type hubFuzz struct {
	t    *testing.T
	h    *Hub
	data []byte
	subs []*fuzzSub

	windows int // windows published
}

// fuzzSub is one FuzzHub subscriber and what it has received.
type fuzzSub struct {
	*Subscriber
	after    uint64 // the sequence number it resumed after
	last     uint64 // seq of the last event received; before any, after capped at the stream's end
	received int
	sawDone  bool
	closed   bool
}

// take consumes one input byte (0 once the input is spent).
func (z *hubFuzz) take() byte {
	if len(z.data) == 0 {
		return 0
	}
	b := z.data[0]
	z.data = z.data[1:]
	return b
}

// publish publishes the next window, updating the model unless the hub
// has finished (publishing then is a no-op).
func (z *hubFuzz) publish() {
	w := timeseries.Window{Index: z.windows, End: uint64(z.windows + 1)}
	if !z.h.done {
		z.windows++
	}
	z.h.Publish(w)
}

func (z *hubFuzz) step() {
	switch op := z.take() % 7; op {
	case 0:
		z.publish()
	case 1:
		z.h.PublishSnapshot(&obs.Snapshot{Version: obs.SnapshotVersion})
	case 2:
		z.h.Done()
	case 3: // subscribe after a seq in [0, seq+2]
		ring := int(z.take()%8) + 1
		after := uint64(z.take()) % (z.h.seq + 3)
		last := min(after, z.h.seq)
		z.subs = append(z.subs, &fuzzSub{Subscriber: z.h.SubscribeAfter(ring, after), after: after, last: last})
	case 4, 5: // read from, or close, a subscriber
		if len(z.subs) == 0 {
			return
		}
		s := z.subs[int(z.take())%len(z.subs)]
		if op == 5 {
			s.Close()
			s.closed = true
			return
		}
		z.next(s)
	case 6: // a burst of a quarter of the log bound
		for i := 0; i < timeseries.DefaultMaxWindows/4; i++ {
			z.publish()
		}
	}
}

// next reads one available event from s without blocking and checks it
// against the stream so far; it reports whether an event arrived.
func (z *hubFuzz) next(s *fuzzSub) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, dropped, ok := s.Next(ctx)
	if !ok {
		return false
	}
	if s.sawDone {
		z.t.Fatalf("event %+v after done", e)
	}
	switch {
	case e.Type == "done" && s.received == 0 && e.Seq == s.last && dropped == 0:
		// Resumed at or past the end of a finished stream: its done
		// arrives anyway.
	case e.Seq != s.last+dropped+1:
		// Lag overruns and evicted windows are counted exactly: the gap
		// before an event is the events dropped in it.
		z.t.Fatalf("event seq %d after %d with %d dropped", e.Seq, s.last, dropped)
	}
	if e.Type == "window" && e.Window == nil {
		z.t.Fatalf("window event %d without a window", e.Seq)
	}
	s.last = e.Seq
	s.received++
	s.sawDone = e.Type == "done"
	return true
}

func (z *hubFuzz) check() {
	h := z.h
	ser, done := h.Timeline()
	if done != h.done {
		z.t.Fatalf("Timeline done %v, hub done %v", done, h.done)
	}
	for i := 1; i < len(ser.Windows); i++ {
		if ser.Windows[i].Index <= ser.Windows[i-1].Index {
			z.t.Fatalf("timeline indices %d then %d", ser.Windows[i-1].Index, ser.Windows[i].Index)
		}
	}
	if n := h.Len(); n != z.windows || uint64(n-len(ser.Windows)) != ser.Dropped {
		z.t.Fatalf("Len %d (model %d), %d timeline windows, dropped %d", n, z.windows, len(ser.Windows), ser.Dropped)
	}
	if len(h.log) > timeseries.DefaultMaxWindows {
		z.t.Fatalf("log holds %d events", len(h.log))
	}
	if z.windows > 0 {
		if w := ser.Windows[len(ser.Windows)-1]; w.Index != z.windows-1 {
			z.t.Fatalf("newest timeline window %d, published %d", w.Index, z.windows-1)
		}
	}
	if !done {
		return
	}
	for _, s := range z.subs {
		if s.closed || s.sawDone {
			continue
		}
		h.mu.Lock()
		ok := s.next <= h.seq
		h.mu.Unlock()
		if !ok {
			z.t.Fatalf("subscriber after %d of a finished hub has no done ahead", s.after)
		}
	}
}
