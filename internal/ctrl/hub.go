package ctrl

// The per-run stream: one Hub holds everything a run publishes while it
// executes — the series header, the seq-stamped window history, the
// latest metrics snapshot and the finished flag — and serves every
// reader from it. SSE subscribers are pushed events through bounded
// per-subscriber rings: a slow consumer overruns its own ring — oldest
// events drop and are counted — while the simulation and every other
// subscriber proceed untouched. /timeline and /metrics pull the newest
// version of each window from the same history. The history itself is
// bounded by timeseries.DefaultMaxWindows, the sampler's own bound.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
)

// DefaultRing is the per-subscriber ring capacity in events.
const DefaultRing = 256

// Event is one hub item: a closed (or re-merged) timeline window, or
// the end-of-run marker.
type Event struct {
	// Seq is the event's position in the run's stream, 1-based and
	// strictly increasing. It is the SSE `id:` of the event, so a
	// reconnecting client replays `Last-Event-ID` and catches up from
	// exactly where it left off — never seeing a window twice.
	Seq uint64 `json:"seq"`
	// Type is "window" or "done".
	Type string `json:"type"`
	// Window carries the window for "window" events.
	Window *timeseries.Window `json:"window,omitempty"`
}

// Hub is a run's one stream: it fans the run's events out to its
// subscribers, retains the newest timeseries.DefaultMaxWindows of them
// so a late subscriber catches up, and answers the /timeline and
// /metrics pulls from that same history.
type Hub struct {
	mu       sync.Mutex
	header   timeseries.Series // Version, Width, Adaptive; Windows stays nil
	seq      uint64
	history  []Event // window events only, consecutive seqs, oldest first
	windows  int     // distinct windows ever published
	evicted  uint64  // windows no longer in history (Series.Dropped)
	snapshot *obs.Snapshot
	done     bool
	subs     []*Subscriber

	// dropped totals events subscribers missed — ring overruns and
	// catch-ups that began before the oldest retained event — across
	// every subscriber the hub ever had; with len(subs) it is what the
	// fleet /metrics publishes.
	dropped atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// SetMeta stamps the series header (width/adaptive) so Timeline copies
// carry the sampler's configuration.
func (h *Hub) SetMeta(width uint64, adaptive bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.header.Version = timeseries.SeriesVersion
	h.header.Width = width
	h.header.Adaptive = adaptive
}

// PublishSnapshot records the latest aggregate metrics snapshot.
func (h *Hub) PublishSnapshot(s *obs.Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snapshot = s
}

// Snapshot returns the last published metrics snapshot (nil if none).
func (h *Hub) Snapshot() *obs.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshot
}

// Publish fans a copy of one window out; see PublishShared.
func (h *Hub) Publish(w timeseries.Window) { h.PublishShared(&w) }

// PublishShared appends one closed (or re-merged) window to the history
// and fans it out by reference: the history and every subscriber ring
// hold w itself, so the caller must never write *w again, which the
// sampler guarantees for every window it hands to Config.OnWindow. A
// window with the newest window's index is a new version of it (an
// adaptive merge extending it) and gets its own event. Past the bound
// the oldest event drops; a window drops from the timeline once none of
// its versions remain. Publishing to a finished hub is a no-op.
func (h *Hub) PublishShared(w *timeseries.Window) {
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	if n := len(h.history); n == 0 || h.history[n-1].Window.Index != w.Index {
		h.windows++
	}
	h.seq++
	e := Event{Seq: h.seq, Type: "window", Window: w}
	h.history = append(h.history, e)
	if len(h.history) > timeseries.DefaultMaxWindows {
		// Clearing the slot before re-slicing lets the window go; the
		// next append that outgrows the backing array copies only the
		// retained events, so eviction is O(1) amortised.
		old := h.history[0].Window.Index
		h.history[0] = Event{}
		h.history = h.history[1:]
		if h.history[0].Window.Index != old {
			h.evicted++
		}
	}
	subs := slices.Clone(h.subs)
	h.mu.Unlock()
	h.push(subs, e)
}

// Done marks the run finished: subscribers receive a final "done" event
// and future subscribers receive it right after catch-up, whatever
// sequence number they resume after.
func (h *Hub) Done() {
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	h.done = true
	h.seq++
	e := Event{Seq: h.seq, Type: "done"}
	subs := slices.Clone(h.subs)
	h.mu.Unlock()
	h.push(subs, e)
}

// push delivers e to subs, accounting ring overruns.
func (h *Hub) push(subs []*Subscriber, e Event) {
	for _, s := range subs {
		h.dropped.Add(s.push(e))
	}
}

// Len returns the number of windows published so far, without copying
// them; it counts windows the bound has dropped from the timeline.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windows
}

// Timeline returns a consistent copy of the retained series — the
// newest version of each window in the history, Dropped counting the
// windows evicted before them — and whether the run has finished.
func (h *Hub) Timeline() (timeseries.Series, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.header
	s.Dropped = h.evicted
	if n := h.windows - int(h.evicted); n > 0 {
		s.Windows = make([]timeseries.Window, 0, n)
	}
	for i, e := range h.history {
		if i+1 < len(h.history) && h.history[i+1].Window.Index == e.Window.Index {
			continue // superseded by a newer version
		}
		s.Windows = append(s.Windows, *e.Window)
	}
	return s, h.done
}

// Subscribe registers a new subscriber with a ring of the given
// capacity (0 = DefaultRing), preloaded with the run's history so far.
// Preloading past a full ring drops the oldest history with the same
// accounting as live overruns.
func (h *Hub) Subscribe(ring int) *Subscriber { return h.SubscribeAfter(ring, 0) }

// SubscribeAfter is Subscribe with bounded catch-up: only history past
// sequence number `after` preloads, so a client reconnecting with the
// last `id:` it saw never receives a duplicated window. Events past
// `after` that the history bound already dropped count as drops before
// the first preloaded event. Catch-up and registration happen under one
// hub lock acquisition, with the preload before the subscriber becomes
// visible to publishers — an event published concurrently lands exactly
// once, in order: either in the catch-up (it was already history) or
// pushed live afterwards.
func (h *Hub) SubscribeAfter(ring int, after uint64) *Subscriber {
	if ring <= 0 {
		ring = DefaultRing
	}
	s := &Subscriber{
		hub:    h,
		buf:    make([]Event, ring),
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	catchup := h.history
	if len(catchup) > 0 {
		if before := catchup[0].Seq - 1; after < before {
			s.dropped = before - after
			h.dropped.Add(s.dropped)
		} else {
			catchup = catchup[min(after-before, uint64(len(catchup))):]
		}
	}
	for _, e := range catchup {
		h.dropped.Add(s.push(e))
	}
	if h.done {
		h.dropped.Add(s.push(Event{Seq: h.seq, Type: "done"}))
	}
	h.subs = append(h.subs, s)
	return s
}

// unsubscribe removes s; idempotent. slices.Delete zeroes the vacated
// tail slot, so a closed subscriber and its ring are not kept reachable
// for as long as the hub lives.
func (h *Hub) unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i := slices.Index(h.subs, s); i >= 0 {
		h.subs = slices.Delete(h.subs, i, i+1)
	}
}

// subscribers returns the live subscriber count.
func (h *Hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Subscriber is one consumer's bounded view of a hub. Events queue in a
// fixed circular buffer; when the consumer falls behind, the oldest
// queued events are dropped and counted, and the count is surfaced on
// the next read so the consumer knows its view has a gap.
type Subscriber struct {
	hub    *Hub
	notify chan struct{}

	mu      sync.Mutex
	buf     []Event
	head, n int
	dropped uint64
	closed  bool
}

// push enqueues one event, dropping the oldest on overrun, and returns
// how many events were dropped (0 or 1).
func (s *Subscriber) push(e Event) uint64 {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	var drops uint64
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		drops = 1
	}
	s.buf[(s.head+s.n)%len(s.buf)] = e
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return drops
}

// Next blocks until an event is available, the subscriber is closed, or
// ctx cancels. It returns the event, the number of events dropped since
// the previous Next (a non-zero value means the stream has a gap just
// before this event), and ok=false when the subscription ended.
func (s *Subscriber) Next(ctx context.Context) (e Event, dropped uint64, ok bool) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			e = s.buf[s.head]
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			dropped = s.dropped
			s.dropped = 0
			s.mu.Unlock()
			return e, dropped, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, 0, false
		}
		select {
		case <-ctx.Done():
			return Event{}, 0, false
		case <-s.notify:
		}
	}
}

// Close ends the subscription and detaches it from the hub.
func (s *Subscriber) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	s.hub.unsubscribe(s)
}
