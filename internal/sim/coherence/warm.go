package coherence

// Functional-tier warming (see cache.Warmer): the directory's warm
// state is the sharer/owner map, and warming it has the same remote
// effects as the protocol proper — write fetches kill remote L1 copies,
// read fetches downgrade a modified owner — so the L1 tag arrays end a
// warm phase mutually consistent. Dirty data displaced by an
// invalidation is forwarded down as a warm writeback immediately (the
// detailed path queues it); invalidation latency does not exist in this
// tier.

import "lpm/internal/sim/cache"

// warmLower returns the lower layer's warm surface, or nil.
func (d *Directory) warmDown() cache.Warmer {
	w, _ := d.lower.(cache.Warmer)
	return w
}

// WarmFetch implements cache.Warmer.
func (d *Directory) WarmFetch(stamp uint64, src int, block uint64, write bool) {
	e := d.entryFor(block)
	if write {
		for s := 0; s < len(d.upper) && s < 64; s++ {
			if s == src || e.sharers&(1<<uint(s)) == 0 {
				continue
			}
			if _, dirty := d.invalidateAt(s, block); dirty {
				if w := d.warmDown(); w != nil {
					w.WarmWriteback(stamp, s, block)
				}
			}
			e.sharers &^= 1 << uint(s)
		}
		e.owner = src
		if src >= 0 && src < 64 {
			e.sharers = 1 << uint(src)
		} else {
			e.sharers = 0
		}
	} else {
		if e.owner >= 0 && e.owner != src {
			if _, dirty := d.invalidateAt(e.owner, block); dirty {
				if w := d.warmDown(); w != nil {
					w.WarmWriteback(stamp, e.owner, block)
				}
			}
			e.sharers &^= 1 << uint(e.owner)
			e.owner = -1
		}
		if src >= 0 && src < 64 {
			e.sharers |= 1 << uint(src)
		}
	}
	d.setEntry(block, e)
	if w := d.warmDown(); w != nil {
		w.WarmFetch(stamp, src, block, write)
	}
}

// WarmWriteback implements cache.Warmer: the source no longer holds the
// block; pass the data down.
func (d *Directory) WarmWriteback(stamp uint64, src int, block uint64) {
	d.release(src, block)
	if w := d.warmDown(); w != nil {
		w.WarmWriteback(stamp, src, block)
	}
}
