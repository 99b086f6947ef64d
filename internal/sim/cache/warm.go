package cache

// Functional-tier warming: the methods here update only the cache's
// *architectural* warm state — tag arrays, replacement stamps, dirty
// bits, and (through the lower layers) directory sharers and DRAM open
// rows — with no queues, no latency, no analyzer transitions. They are
// the cheap counterpart of the detailed Access/Request/Tick path used
// to warm a hierarchy before a measured detailed phase; because they
// bypass every timing structure, per-access cost is a tag probe rather
// than a pipeline traversal. Counter side effects are unspecified (a
// warm phase is always followed by ResetCounters); queue state is
// guaranteed untouched, so the detailed engine resumes cleanly.

// Warmer is the functional-tier counterpart of Lower: the surface a
// layer uses to warm the layer below it. Every Lower in this repository
// (Cache, Directory, Router, DRAM) also implements Warmer.
type Warmer interface {
	// WarmFetch brings a block into the layer's warm state on behalf of
	// requestor src, recursing below on a miss. stamp orders
	// replacement decisions (the functional tier's clock).
	WarmFetch(stamp uint64, src int, block uint64, write bool)
	// WarmWriteback absorbs a dirty block evicted by the layer above.
	WarmWriteback(stamp uint64, src int, block uint64)
}

// WarmAccess performs one functional-tier demand access from this
// cache's owner (the CPU for an L1), warming the hierarchy beneath it
// on a miss. It reports whether the access hit.
func (c *Cache) WarmAccess(stamp uint64, addr uint64, write bool) bool {
	c.now = stamp
	blk := c.block(addr)
	if c.lookup(blk, write) {
		return true
	}
	c.warmFill(stamp, blk, write)
	return false
}

// WarmFetch implements Warmer for a cache serving as a lower layer.
func (c *Cache) WarmFetch(stamp uint64, src int, block uint64, write bool) {
	_ = src
	c.now = stamp
	addr := block << c.blockBits
	blk := c.block(addr)
	if c.lookup(blk, write) {
		return
	}
	c.warmFill(stamp, blk, write)
}

// WarmWriteback implements Warmer: update the block in place when
// present, else forward the writeback down — the immediate form of
// acceptWriteback (no writeback queue in the functional tier).
func (c *Cache) WarmWriteback(stamp uint64, src int, block uint64) {
	_ = src
	c.now = stamp
	if l := c.find(block); l != nil {
		l.tag |= dirtyBit
		return
	}
	if c.warmLower != nil {
		c.warmLower.WarmWriteback(stamp, c.cfg.SrcID, block)
	}
}

// warmFill fetches block from below and installs it, evicting (and
// warm-writing-back) a victim as the detailed fill path would.
func (c *Cache) warmFill(stamp uint64, blk uint64, write bool) {
	if c.warmLower != nil {
		c.warmLower.WarmFetch(stamp, c.cfg.SrcID, blk, write)
	}
	v := c.victim(c.fillSet(blk))
	if v.tag&validBit != 0 {
		if v.tag&dirtyBit != 0 {
			if c.warmLower != nil {
				c.warmLower.WarmWriteback(stamp, c.cfg.SrcID, v.block())
			}
		} else if c.cleanLower != nil {
			c.cleanLower.EvictClean(c.cfg.SrcID, v.block())
		}
	}
	*v = line{tag: tagWord(blk, write), used: c.now}
}
