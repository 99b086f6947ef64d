package ctrl

// The per-run stream: one Hub holds everything a run publishes while it
// executes — the series header, an append-only log of seq-stamped final
// windows followed by the `done` marker, the latest metrics snapshot —
// and serves every reader from it. A window is final when the sampler
// closes it, so the log is the only copy: /timeline and /metrics read
// it, and an SSE subscriber is a cursor into it plus a lag bound. A slow
// consumer that falls more than its bound behind skips the oldest events
// it missed and is told how many, while the simulation and every other
// subscriber proceed untouched. The log itself keeps the newest
// timeseries.DefaultMaxWindows windows, the sampler's own bound.

import (
	"context"
	"sync"
	"sync/atomic"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
)

// DefaultRing is the default subscriber lag bound in events.
const DefaultRing = 256

// Event is one hub item: a closed timeline window, or the end-of-run
// marker.
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

// Hub is a run's one stream: the log of the run's events, which its
// subscribers read through cursors and the /timeline and /metrics pulls
// copy from.
type Hub struct {
	mu       sync.Mutex
	header   timeseries.Series // Version and Width; Windows stays nil
	log      []Event           // window events, consecutive seqs, oldest first
	seq      uint64            // seq of the newest event, done included
	snapshot *obs.Snapshot
	done     bool
	wake     chan struct{} // closed by the next event or Close; nil while no reader waits
	subs     int           // open subscribers

	// dropped totals events subscribers skipped — lag overruns and
	// catch-ups that began before the oldest logged event — across every
	// subscriber the hub ever had; with subs it is what the fleet
	// /metrics publishes.
	dropped atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// SetMeta stamps the series header (the window width) so Timeline
// copies carry the sampler's configuration.
func (h *Hub) SetMeta(width uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.header.Version = timeseries.SeriesVersion
	h.header.Width = width
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

// Publish appends a copy of one window; see PublishShared.
func (h *Hub) Publish(w timeseries.Window) { h.PublishShared(&w) }

// PublishShared appends one closed window to the log by reference: the
// log holds w itself and every reader shares it, so the caller must
// never write *w again, which the sampler guarantees for every window it
// hands to Config.OnWindow. Past the bound the oldest window leaves the
// log. The cost does not depend on the number of subscribers: they find
// the window when they next read. Publishing to a finished hub is a
// no-op.
func (h *Hub) PublishShared(w *timeseries.Window) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.seq++
	h.log = append(h.log, Event{Seq: h.seq, Type: "window", Window: w})
	if len(h.log) > timeseries.DefaultMaxWindows {
		// Clearing the slot before re-slicing lets the window go; the
		// next append that outgrows the backing array copies only the
		// retained events, so eviction is O(1) amortised.
		h.log[0] = Event{}
		h.log = h.log[1:]
	}
	h.broadcast()
}

// Done marks the run finished: the log ends with a "done" event, which
// every subscriber receives last, whatever sequence number it resumed
// after.
func (h *Hub) Done() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	h.seq++
	h.broadcast()
}

// broadcast wakes every reader waiting in Next. The caller holds h.mu.
func (h *Hub) broadcast() {
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

// Len returns the number of windows published so far, without copying
// them; it counts windows the bound has dropped from the timeline.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.log); n > 0 {
		return int(h.log[n-1].Seq)
	}
	return 0
}

// Timeline returns a consistent copy of the logged series — Dropped
// counting the windows evicted before the oldest one — and whether the
// run has finished.
func (h *Hub) Timeline() (timeseries.Series, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.header
	if len(h.log) > 0 {
		s.Dropped = h.log[0].Seq - 1
		s.Windows = make([]timeseries.Window, len(h.log))
		for i, e := range h.log {
			s.Windows[i] = *e.Window
		}
	}
	return s, h.done
}

// Subscribe opens a cursor at the start of the run's stream that may
// fall at most ring events behind its newest event (0 = DefaultRing).
func (h *Hub) Subscribe(ring int) *Subscriber { return h.SubscribeAfter(ring, 0) }

// SubscribeAfter is Subscribe with bounded catch-up: the cursor starts
// past sequence number `after`, so a client reconnecting with the last
// `id:` it saw never receives a duplicated window. A cursor past the
// stream's end waits for its next event, or, on a finished stream,
// receives `done`.
func (h *Hub) SubscribeAfter(ring int, after uint64) *Subscriber {
	if ring <= 0 {
		ring = DefaultRing
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	next := min(after, h.seq) + 1
	if h.done {
		next = min(next, h.seq)
	}
	h.subs++
	return &Subscriber{hub: h, lag: uint64(ring), next: next}
}

// subscribers returns the open subscriber count.
func (h *Hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subs
}

// Subscriber is one consumer's cursor into a hub's log. A consumer that
// falls more than its lag bound behind the newest event skips the
// oldest events it missed, as does one whose cursor points before the
// oldest logged window; the skip is counted and surfaced on the read
// that makes it, so the consumer knows its view has a gap there. The
// skipped events count toward the hub's drop total when a read or Close
// passes them.
type Subscriber struct {
	hub *Hub
	lag uint64 // the most events the cursor may trail the newest by

	// next (the seq of the next event to read) and closed are guarded by
	// hub.mu.
	next   uint64
	closed bool
}

// skip advances s past what it can no longer read — events more than
// the lag bound behind the newest one and windows evicted from the log —
// and returns how many events it passed. The caller holds the hub's mu.
func (s *Subscriber) skip() uint64 {
	h := s.hub
	from := s.next
	if h.seq >= s.lag {
		from = max(from, h.seq-s.lag+1)
	}
	if len(h.log) > 0 {
		from = max(from, h.log[0].Seq)
	}
	gap := from - s.next
	s.next = from
	h.dropped.Add(gap)
	return gap
}

// Next blocks until an event is available, the subscriber is closed, or
// ctx cancels. It returns the event, the number of events skipped since
// the previous Next (a non-zero value means the stream has a gap just
// before this event), and ok=false when the subscription ended.
func (s *Subscriber) Next(ctx context.Context) (e Event, dropped uint64, ok bool) {
	h := s.hub
	for {
		h.mu.Lock()
		if s.closed {
			h.mu.Unlock()
			return Event{}, 0, false
		}
		if s.next <= h.seq {
			dropped = s.skip()
			if h.done && s.next == h.seq {
				e = Event{Seq: h.seq, Type: "done"}
			} else {
				e = h.log[s.next-h.log[0].Seq]
			}
			s.next++
			h.mu.Unlock()
			return e, dropped, true
		}
		if h.wake == nil {
			h.wake = make(chan struct{})
		}
		wake := h.wake
		h.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, 0, false
		case <-wake:
		}
	}
}

// Close ends the subscription, charging the events it had already
// fallen too far behind to read, and wakes a Next blocked on it.
// Idempotent.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	h.subs--
	s.skip()
	h.broadcast()
}
