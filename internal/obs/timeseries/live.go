package timeseries

import (
	"cmp"
	"slices"
	"sync"

	"lpm/internal/obs"
)

// Live is the synchronised hand-off between the (single-goroutine)
// simulation and concurrent readers — the substrate of lpmrun's -serve
// mode. The simulator publishes each closed window and the latest
// metrics snapshot; HTTP handlers read consistent copies under the
// lock. This is the only concurrency-aware type in the observability
// layer: samplers and registries stay unsynchronised and goroutines
// stay out of internal/sim (enforced by lpmlint).
//
// The nil *Live is valid and ignores every call, so wiring it through
// OnWindow costs nothing when serving is off.
//
// Windows are held by pointer and never written after publication, so
// the sampler, Live and the control plane's SSE hub share one copy of
// each window.
type Live struct {
	mu       sync.Mutex
	header   Series    // Version, Width, Adaptive; Windows stays nil
	windows  []*Window // ascending Index
	snapshot *obs.Snapshot
	done     bool
}

// NewLive returns an empty live publisher.
func NewLive() *Live { return &Live{} }

// Publish records a copy of a closed (or re-merged) window; see
// PublishShared.
func (l *Live) Publish(w Window) { l.PublishShared(&w) }

// PublishShared records a closed (or re-merged) window by reference:
// the caller must never write *w again, which the sampler guarantees
// for every window it hands to Config.OnWindow. Re-publishing an index
// replaces the previous version — adaptive samplers re-emit the newest
// window each time a merge extends it, and a retried run re-emits its
// timeline from index 0.
func (l *Live) PublishShared(w *Window) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i, found := slices.BinarySearchFunc(l.windows, w.Index, func(p *Window, index int) int {
		return cmp.Compare(p.Index, index)
	})
	if found {
		l.windows[i] = w
		return
	}
	l.windows = slices.Insert(l.windows, i, w)
}

// Len returns the number of published windows, without copying them.
func (l *Live) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.windows)
}

// PublishSnapshot records the latest aggregate metrics snapshot.
func (l *Live) PublishSnapshot(s *obs.Snapshot) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snapshot = s
}

// SetMeta stamps the series header (width/adaptive) so Timeline copies
// carry the sampler's configuration.
func (l *Live) SetMeta(width uint64, adaptive bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.header.Version = SeriesVersion
	l.header.Width = width
	l.header.Adaptive = adaptive
}

// Finish marks the run complete (reported by Timeline consumers).
func (l *Live) Finish() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = true
}

// Timeline returns a consistent copy of the published series and
// whether the run has finished.
func (l *Live) Timeline() (Series, bool) {
	if l == nil {
		return Series{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.header
	s.Windows = copyWindows(l.windows)
	return s, l.done
}

// Snapshot returns the last published metrics snapshot (nil if none).
func (l *Live) Snapshot() *obs.Snapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshot
}
