// Package coherence implements a directory-based MSI-style protocol over
// the repository's caches, the substrate a multicore with genuinely
// shared data needs (the paper's data stall time definition explicitly
// includes "in multi-thread cases, the latency due to cache coherency
// and consistency", §III-A).
//
// The Directory interposes between the private L1s and the shared L2: it
// tracks, per block, which L1s hold a copy and whether one holds it
// modified. Read fetches register the requestor as a sharer; write
// fetches (and upgrades) invalidate every other copy first, turning the
// victims' dirty data into writebacks. State is block-granular and
// invalidation takes effect between cycles — the standard
// timing-simulator abstraction that charges the *misses and traffic* of
// coherence without modelling data values.
package coherence

import (
	"fmt"

	"lpm/internal/sim/cache"
)

// Invalidator is the upper-cache surface the directory drives; implemented
// by *cache.Cache.
type Invalidator interface {
	Invalidate(blockAddr uint64) (present, dirty bool)
}

// entry is one tracked block's directory state. A block with no sharer
// and no owner has no entry.
type entry struct {
	sharers uint64 // bitmask of L1s holding the block
	owner   int    // index holding it modified; -1 when unowned
}

// Stats counts protocol events.
type Stats struct {
	// ReadFetches and WriteFetches count forwarded demand fetches: the
	// ones the lower layer accepted, not the attempts it refused.
	ReadFetches, WriteFetches uint64
	// Invalidations counts copies killed by write fetches.
	Invalidations uint64
	// DirtyForwards counts invalidations that flushed modified data
	// (owner -> memory -> requestor in a real machine; charged here as a
	// writeback plus the normal fetch).
	DirtyForwards uint64
	// Downgrades counts modified copies demoted to shared by a read.
	Downgrades uint64
	// TrackedBlocks is the current directory occupancy.
	TrackedBlocks int
}

// Directory is the coherence controller. It implements cache.Lower
// toward the L1s and forwards to the real lower layer (the shared L2 or
// a NoC router).
type Directory struct {
	lower  cache.Lower
	upper  []Invalidator
	blocks map[uint64]entry
	st     Stats
	// InvalidationLatency is charged (in cycles) to a write fetch that
	// had to kill remote copies, by delaying its forward; 0 disables.
	InvalidationLatency uint64

	// delayed holds the write fetches waiting out their invalidation
	// latency; delayed[delayedHead:] is live and ordered by at (the
	// latency is one constant, and a refused forward re-queues in place
	// for the next cycle, which no later entry precedes).
	delayed     []delayedReq
	delayedHead int
}

// delayedReq is a write fetch waiting out its invalidation latency.
type delayedReq struct {
	src   int
	block uint64
	write bool
	done  func(uint64)
	at    uint64
}

// New builds a directory over the given upper caches (indexed by their
// SrcID) and lower layer.
func New(upper []Invalidator, lower cache.Lower) *Directory {
	return &Directory{
		lower:  lower,
		upper:  upper,
		blocks: make(map[uint64]entry),
	}
}

// Stats returns the event counters (TrackedBlocks refreshed).
func (d *Directory) Stats() Stats {
	st := d.st
	st.TrackedBlocks = len(d.blocks)
	return st
}

// ResetCounters zeroes the counters, keeping directory state.
func (d *Directory) ResetCounters() { d.st = Stats{} }

// Busy reports whether delayed fetches are pending.
func (d *Directory) Busy() bool { return d.delayedHead < len(d.delayed) }

// entryFor returns the state of a block; callers store it back with
// setEntry after changing it.
func (d *Directory) entryFor(block uint64) entry {
	if e, ok := d.blocks[block]; ok {
		return e
	}
	return entry{owner: -1}
}

// setEntry records block's state, dropping the entry once nobody holds
// the block.
func (d *Directory) setEntry(block uint64, e entry) {
	if e.sharers == 0 && e.owner == -1 {
		delete(d.blocks, block)
		return
	}
	d.blocks[block] = e
}

// Request implements cache.Lower.
func (d *Directory) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	if done == nil {
		// Writeback: the source no longer holds the block.
		d.release(src, block)
		return d.lower.Request(cycle, src, block, true, nil)
	}
	if write {
		delay := d.prepareWrite(cycle, src, block)
		if delay > 0 {
			if d.delayedHead > 0 && len(d.delayed) == cap(d.delayed) {
				// Reclaim the popped prefix rather than grow.
				d.delayed = d.delayed[:copy(d.delayed, d.delayed[d.delayedHead:])]
				d.delayedHead = 0
			}
			d.delayed = append(d.delayed, delayedReq{
				src: src, block: block, write: true, done: done, at: cycle + delay,
			})
			return true
		}
		return d.forward(cycle, src, block, true, done)
	}
	// Read fetch: register the sharer; a modified owner is downgraded
	// (its dirty data flushed as a writeback).
	e := d.entryFor(block)
	if e.owner >= 0 && e.owner != src {
		if _, dirty := d.invalidateAt(e.owner, block); dirty {
			d.st.DirtyForwards++
			d.lower.Request(cycle, e.owner, block, true, nil)
		}
		e.sharers &^= 1 << uint(e.owner)
		d.st.Downgrades++
		e.owner = -1
	}
	if src >= 0 && src < 64 {
		e.sharers |= 1 << uint(src)
	}
	d.setEntry(block, e)
	return d.forward(cycle, src, block, false, done)
}

// forward sends a demand fetch down and counts it if accepted.
func (d *Directory) forward(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	if !d.lower.Request(cycle, src, block, write, done) {
		return false
	}
	if write {
		d.st.WriteFetches++
	} else {
		d.st.ReadFetches++
	}
	return true
}

// prepareWrite invalidates every remote copy of block and returns the
// invalidation delay to charge (0 when no copies existed).
func (d *Directory) prepareWrite(cycle uint64, src int, block uint64) uint64 {
	e := d.entryFor(block)
	killed := false
	for s := 0; s < len(d.upper) && s < 64; s++ {
		if s == src || e.sharers&(1<<uint(s)) == 0 {
			continue
		}
		present, dirty := d.invalidateAt(s, block)
		if present {
			killed = true
			d.st.Invalidations++
			if dirty {
				d.st.DirtyForwards++
				d.lower.Request(cycle, s, block, true, nil)
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
	d.setEntry(block, e)
	if killed {
		return d.InvalidationLatency
	}
	return 0
}

// invalidateAt kills the copy at upper cache s.
func (d *Directory) invalidateAt(s int, block uint64) (present, dirty bool) {
	if s < 0 || s >= len(d.upper) || d.upper[s] == nil {
		return false, false
	}
	return d.upper[s].Invalidate(block)
}

// release clears src's sharer/owner state for block.
func (d *Directory) release(src int, block uint64) {
	e, ok := d.blocks[block]
	if !ok {
		return
	}
	if src >= 0 && src < 64 {
		e.sharers &^= 1 << uint(src)
	}
	if e.owner == src {
		e.owner = -1
	}
	d.setEntry(block, e)
}

// EvictClean implements cache.CleanEvictee: src silently dropped its
// clean copy of block, so it is no longer a sharer. Without this the
// directory would track every block any L1 ever read. An owner's entry
// is left alone — a modified copy leaves as a writeback (release).
// Exactness: a sharer bit only selects which caches a write fetch
// invalidates, and invalidating a cache that does not hold the block
// finds nothing and counts nothing, so dropping the bit of a cache that
// no longer holds it changes no outcome; src has no fetch of block in
// flight either, since a block being fetched is not resident to evict.
func (d *Directory) EvictClean(src int, block uint64) {
	e, ok := d.blocks[block]
	if !ok || e.owner == src || src < 0 || src >= 64 {
		return
	}
	e.sharers &^= 1 << uint(src)
	d.setEntry(block, e)
}

// Tick forwards delayed write fetches whose invalidation latency
// expired, oldest first. Call it once per cycle, between the L1s and the
// lower layer.
func (d *Directory) Tick(cycle uint64) {
	if d.delayedHead == len(d.delayed) || d.delayed[d.delayedHead].at > cycle {
		return
	}
	// Refused forwards are collected at the front of the due prefix to
	// retry next cycle, then moved up against the entries still waiting.
	kept, i := d.delayedHead, d.delayedHead
	for ; i < len(d.delayed) && d.delayed[i].at <= cycle; i++ {
		r := d.delayed[i]
		if !d.forward(cycle, r.src, r.block, r.write, r.done) {
			r.at = cycle + 1
			d.delayed[kept] = r
			kept++
		}
	}
	n := kept - d.delayedHead
	copy(d.delayed[i-n:i], d.delayed[d.delayedHead:kept])
	d.delayedHead = i - n
	if d.delayedHead == len(d.delayed) {
		d.delayed, d.delayedHead = d.delayed[:0], 0
	}
}

// String summarises the protocol counters.
func (d *Directory) String() string {
	st := d.Stats()
	return fmt.Sprintf("coherence{reads=%d writes=%d inval=%d dirtyFwd=%d downgrades=%d tracked=%d}",
		st.ReadFetches, st.WriteFetches, st.Invalidations, st.DirtyForwards, st.Downgrades, st.TrackedBlocks)
}
