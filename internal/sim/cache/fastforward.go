package cache

// Fast-forward hooks (see chip/fastforward.go). A cache is quiescent
// when nothing it does per cycle can change state: no queued input,
// nothing to issue downstream, and no fills to install. The hit
// pipeline, outstanding MSHRs and parked misses are allowed — the
// pipeline's resolution cycles are exposed via NextEvent (resolution is
// an exact-cycle match, so the chip must never jump past one), MSHR
// fills arrive through lower-layer callbacks that make the cache
// non-quiescent the cycle they land, and a parked miss is retried only
// in a cycle that installs a fill.

// Quiescent reports whether the next Tick would only re-walk unchanged
// state (no completions, starts, retries, installs, or downstream
// issues).
func (c *Cache) Quiescent(now uint64) bool {
	_ = now
	return len(c.input) == 0 && len(c.issueQ) == 0 && len(c.wbQ) == 0 &&
		len(c.fills) == 0 && len(c.fillsNext) == 0
}

// NextEvent returns the earliest hit-pipeline resolution cycle, or
// ^uint64(0) when the pipeline is empty.
func (c *Cache) NextEvent() uint64 {
	if c.pipeHead == len(c.pipe) {
		return ^uint64(0)
	}
	return c.pipe[c.pipeHead].ready
}

// AdvanceCycles accrues n quiescent cycles (now+1 .. now+n) in bulk:
// the analyzer classifies each with an unchanged hit count and miss
// set, and the MSHR occupancy histogram sees the unchanged population.
func (c *Cache) AdvanceCycles(now, n uint64) {
	c.now = now + n
	c.an.TickN(n)
	if c.ob != nil {
		c.ob.mshrOcc.ObserveN(float64(len(c.mshrs)), n)
	}
}
