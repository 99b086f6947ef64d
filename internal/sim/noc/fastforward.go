package noc

// Fast-forward hooks (see chip/fastforward.go). The router is quiescent
// when no message awaits arbitration and nothing in flight is due (or
// overdue, i.e. retrying after lower-layer backpressure). Traversal
// completions are scheduled events exposed via NextEvent; the router
// accrues no per-cycle counters, so AdvanceCycles only moves its clock.

// Quiescent reports whether the next Tick would deliver, hand over, or
// arbitrate nothing.
func (r *Router) Quiescent(now uint64) bool {
	return r.queued == 0 && r.NextEvent() > now+1
}

// NextEvent returns the earliest traversal completion in either
// direction — the head of one of the two time-ordered queues — or
// ^uint64(0).
func (r *Router) NextEvent() uint64 {
	ev := ^uint64(0)
	if r.inflight.len() > 0 {
		ev = r.inflight.front().readyAt
	}
	if r.resp.len() > 0 && r.resp.front().readyAt < ev {
		ev = r.resp.front().readyAt
	}
	return ev
}

// AdvanceCycles advances the router's clock over n quiescent cycles;
// there is no per-cycle accounting to accrue.
func (r *Router) AdvanceCycles(now, n uint64) { r.now = now + n }
