package ctrl

// The per-run event hub: timeline windows fan out to SSE subscribers
// through bounded per-subscriber rings. A slow consumer overruns its
// own ring — oldest events drop and are counted — while the simulation
// and every other subscriber proceed untouched. This is the
// backpressure contract of the streaming endpoint: the control plane
// never lets an HTTP client slow a run down.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

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

// Hub fans a run's events out to its subscribers and retains history so
// a late subscriber catches up from the start of the run.
type Hub struct {
	mu      sync.Mutex
	seq     uint64
	history []Event
	done    bool
	subs    []*Subscriber

	// dropped totals ring overruns across every subscriber the hub ever
	// had; with len(subs) it is what the fleet /metrics publishes.
	dropped atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// Publish fans a copy of one window out to every subscriber and appends
// it to the catch-up history; see publish.
func (h *Hub) Publish(w timeseries.Window) { h.publish(&w) }

// publish fans one window out by reference: the catch-up history and
// every subscriber ring hold w itself, so the caller must never write
// *w again. SimRunner passes the sampler's stored windows, which are
// immutable once emitted, so a run's windows exist once however many
// views hold them.
func (h *Hub) publish(w *timeseries.Window) {
	h.broadcast(Event{Type: "window", Window: w})
}

// Done marks the run finished: subscribers receive a final "done" event
// and future subscribers see it immediately after catch-up.
func (h *Hub) Done() {
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	h.done = true
	h.mu.Unlock()
	h.broadcast(Event{Type: "done"})
}

// broadcast stamps the next sequence number, appends to history and
// pushes to every subscriber ring, accounting aggregate drops.
func (h *Hub) broadcast(e Event) {
	h.mu.Lock()
	h.seq++
	e.Seq = h.seq
	h.history = append(h.history, e)
	subs := append([]*Subscriber(nil), h.subs...)
	h.mu.Unlock()
	for _, s := range subs {
		h.dropped.Add(s.push(e))
	}
}

// Subscribe registers a new subscriber with a ring of the given
// capacity (0 = DefaultRing), preloaded with the run's history so far.
// Preloading past a full ring drops the oldest history with the same
// accounting as live overruns.
func (h *Hub) Subscribe(ring int) *Subscriber { return h.SubscribeAfter(ring, 0) }

// SubscribeAfter is Subscribe with bounded catch-up: only history past
// sequence number `after` preloads, so a client reconnecting with the
// last `id:` it saw never receives a duplicated window. Catch-up and
// registration happen under one hub lock acquisition, with the preload
// before the subscriber becomes visible to broadcast — an event
// published concurrently lands exactly once, in order: either in the
// catch-up (it was already history) or pushed live afterwards.
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
	for _, e := range h.history {
		if e.Seq > after {
			h.dropped.Add(s.push(e))
		}
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
