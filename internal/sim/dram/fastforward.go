package dram

import "math/bits"

// Fast-forward hooks (see chip/fastforward.go). The controller is
// quiescent when every channel queue is empty: nothing schedules, no
// row state changes. Scheduled completions (pend) are allowed — their
// fire cycles are exposed via NextEvent — and the per-cycle Stats they
// imply (active cycles, bus-busy cycles draining as bursts end) are
// accrued in closed form by AdvanceCycles.

// Quiescent reports whether the next Tick would start no request.
func (d *DRAM) Quiescent(now uint64) bool {
	_ = now
	return d.queued == 0
}

// NextEvent returns the earliest scheduled completion cycle, or
// ^uint64(0) when none is outstanding.
func (d *DRAM) NextEvent() uint64 {
	if len(d.pend) == 0 {
		return ^uint64(0)
	}
	return d.nextDone
}

// AdvanceCycles accrues n quiescent cycles (now+1 .. now+n) in bulk.
// ActiveCycles counts every jumped cycle while completions are
// outstanding; each live channel's bus stays busy until its busUntil
// stamp, contributing clamp(busUntil-now-1, 0, n) cycles, and a channel
// whose bus frees by now+n leaves the live set (every queue is empty).
func (d *DRAM) AdvanceCycles(now, n uint64) {
	d.now = now + n
	if len(d.pend) > 0 {
		d.st.ActiveCycles += n
	}
	for m := d.live; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		bu := d.channels[ci].busUntil
		if bu > now+1 {
			busy := bu - now - 1
			if busy > n {
				busy = n
			}
			d.st.BusBusyCycles += busy
		}
		if bu <= now+n {
			d.live &^= 1 << ci
		}
	}
	if d.ob != nil {
		d.ob.queueOcc.ObserveN(0, n)
	}
}
