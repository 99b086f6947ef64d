package coherence

// Fast-forward hooks (see chip/fastforward.go). The directory's only
// per-cycle work is forwarding delayed write fetches, so it is
// quiescent while every delayed fetch is still waiting out its
// invalidation latency, and its next event is the earliest expiry.
// Tick accrues no per-cycle counters, so AdvanceCycles is a no-op.

// Quiescent reports whether the next Tick would forward nothing.
func (d *Directory) Quiescent(now uint64) bool { return d.NextEvent() > now+1 }

// NextEvent returns the earliest delayed-fetch expiry — the head of the
// time-ordered queue — or ^uint64(0).
func (d *Directory) NextEvent() uint64 {
	if d.delayedHead == len(d.delayed) {
		return ^uint64(0)
	}
	return d.delayed[d.delayedHead].at
}

// AdvanceCycles is a no-op: the directory has no per-cycle accounting.
func (d *Directory) AdvanceCycles(now, n uint64) { _, _ = now, n }
