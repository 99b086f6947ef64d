package ctrl

// One copy per window: the sampler's stored windows are shared by
// reference between a run's Hub log and every reader of it, so these
// tests pin what that sharing relies on and what it must not leak — a
// window is never written after it is published, a closed subscriber is
// released, and status reads do not copy the timeline.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lpm/internal/obs/timeseries"
)

// TestRunConcurrentSSE runs a real simulation while an SSE client and a
// /timeline poller read it. Every window the client receives must be
// internally consistent (each core's stall tree sums to the window's
// cycles) and arrive once, in order, and under -race the sampler must
// not write memory a reader is encoding.
func TestRunConcurrentSSE(t *testing.T) {
	reg := NewRegistry(context.Background(), Config{MaxConcurrent: 1})
	srv := httptest.NewServer(NewAPIMux(reg))
	defer srv.Close()
	defer reg.Drain()
	st, err := reg.Submit(RunSpec{Workload: "433.milc", Instructions: 4000, Warmup: 12000, TSWindow: 256})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	base := srv.URL + "/api/v1/runs/" + st.ID

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // poll /timeline until the run reports done
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			resp, err := http.Get(base + "/timeline")
			if err != nil {
				t.Errorf("GET timeline: %v", err)
				return
			}
			var doc TimelineDoc
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Errorf("timeline: %v", err)
				return
			}
			if doc.Done {
				return
			}
		}
	}()

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	windows, lastIndex := 0, -1
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			if ev == "done" {
				break
			}
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if ok && event == "drop" {
			var d struct {
				Dropped int `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				t.Fatalf("drop event: %v", err)
			}
			lastIndex += d.Dropped
			windows += d.Dropped
		}
		if !ok || event != "window" {
			continue
		}
		var w timeseries.Window
		if err := json.Unmarshal([]byte(data), &w); err != nil {
			t.Fatalf("window event: %v", err)
		}
		for core, tree := range w.Stall {
			if tree.Total() != w.Cycles() {
				t.Fatalf("window %d [%d,%d) core %d: stall total %d != %d cycles",
					w.Index, w.Start, w.End, core, tree.Total(), w.Cycles())
			}
		}
		if w.Index != lastIndex+1 {
			t.Fatalf("window %d after window %d and its drops", w.Index, lastIndex)
		}
		lastIndex = w.Index
		windows++
	}
	wg.Wait()
	if event != "done" {
		t.Fatalf("stream ended before done: %v", sc.Err())
	}
	if st := waitState(t, reg, st.ID, StateDone); st.Windows == 0 || st.Windows != windows {
		t.Fatalf("done run reports %d windows, the stream carried or dropped %d", st.Windows, windows)
	}
}

// TestClosedSubscriberIsCollected: a closed subscriber must not stay
// reachable from its hub, even though the hub itself (like every run's
// hub in the registry) stays alive.
func TestClosedSubscriberIsCollected(t *testing.T) {
	hub := NewHub()
	keep := hub.Subscribe(0)
	defer keep.Close()
	collected := make(chan struct{})
	func() {
		sub := hub.Subscribe(0)
		runtime.SetFinalizer(sub, func(*Subscriber) { close(collected) })
		hub.Publish(timeseries.Window{Index: 0})
		sub.Close()
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			if n := hub.subscribers(); n != 1 {
				t.Fatalf("%d subscribers after close, want 1", n)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed subscriber still reachable from its hub")
}

// TestGetDoesNotCopyTimeline: a status read counts windows; it must not
// allocate in proportion to them (it runs under the registry mutex on
// every submit, GET, cancel and list).
func TestGetDoesNotCopyTimeline(t *testing.T) {
	allocs := func(windows int) float64 {
		reg := NewRegistry(context.Background(), Config{Runner: &stubRunner{windows: windows}})
		defer reg.Drain()
		st, err := reg.Submit(RunSpec{Workload: "403.gcc"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if got := waitState(t, reg, st.ID, StateDone).Windows; got != windows {
			t.Fatalf("status reports %d windows, want %d", got, windows)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := reg.Get(st.ID); err != nil {
				t.Fatal(err)
			}
		})
	}
	if none, many := allocs(0), allocs(1000); many != none {
		t.Fatalf("Get allocates %v times on a 1000-window run, %v on an empty one", many, none)
	}
}

// BenchmarkPublisherWindow is the per-window cost of a run's publish
// path with one SSE subscriber draining it: what B/op and allocs/op
// report is what each window adds to a run the registry keeps (the
// window itself and its hub log entry, up to the log bound; past it,
// -benchtime 200000x measures eviction too).
func BenchmarkPublisherWindow(b *testing.B) {
	hub := NewHub()
	sub := hub.Subscribe(0)
	defer sub.Close()
	ctx := context.Background()
	w := timeseries.Window{
		CPU:    make([]timeseries.CPUSample, 1),
		Cache:  []timeseries.CacheSample{{Level: "l1.0"}, {Level: "l2"}},
		Stall:  make([]timeseries.StallTree, 1),
		Probes: make([]timeseries.ProbeValue, 5),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Index = i
		w.Start, w.End = uint64(i)*2048, uint64(i+1)*2048
		hub.Publish(w)
		if _, _, ok := sub.Next(ctx); !ok {
			b.Fatal("subscriber ended")
		}
	}
}
