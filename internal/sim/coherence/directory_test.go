package coherence

import (
	"testing"

	"lpm/internal/sim/cache"
	"lpm/internal/sim/dram"
)

// rig: two private L1s -> directory -> shared fixed-latency memory.
type rig struct {
	l1s []*cache.Cache
	dir *Directory
	mem *dram.Fixed
	now uint64
}

func newRig(invalLat uint64) *rig {
	r := &rig{mem: &dram.Fixed{Latency: 10}}
	mk := func(i int) *cache.Cache {
		return cache.New(cache.Config{
			Name: "L1", Size: 4 << 10, BlockSize: 64, Assoc: 2,
			HitLatency: 2, Ports: 2, Banks: 2, MSHRs: 4, Coalesce: true,
			SrcID: i,
		})
	}
	r.l1s = []*cache.Cache{mk(0), mk(1)}
	ups := make([]Invalidator, len(r.l1s))
	for i, c := range r.l1s {
		ups[i] = c
	}
	r.dir = New(ups, r.mem)
	r.dir.InvalidationLatency = invalLat
	for _, c := range r.l1s {
		c.SetLower(r.dir)
	}
	return r
}

func (r *rig) step() {
	r.now++
	for _, c := range r.l1s {
		c.Tick(r.now)
	}
	r.dir.Tick(r.now)
	r.mem.Tick(r.now)
}

// access runs a demand access on L1 i and waits for completion.
func (r *rig) access(t *testing.T, i int, addr uint64, write bool) {
	t.Helper()
	done := false
	if !r.l1s[i].Access(r.now+1, addr, write, func(uint64) { done = true }) {
		t.Fatal("access rejected")
	}
	for k := 0; k < 500 && !done; k++ {
		r.step()
	}
	if !done {
		t.Fatal("access never completed")
	}
}

func TestReadSharing(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x100, false)
	r.access(t, 1, 0x100, false)
	if !r.l1s[0].Contains(0x100) || !r.l1s[1].Contains(0x100) {
		t.Fatal("read sharing should leave both copies")
	}
	if st := r.dir.Stats(); st.ReadFetches != 2 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x100, false) // core 0 reads
	r.access(t, 1, 0x100, true)  // core 1 writes: core 0's copy must die
	if r.l1s[0].Contains(0x100) {
		t.Fatal("stale copy survived a remote write")
	}
	if !r.l1s[1].Contains(0x100) {
		t.Fatal("writer lost its own copy")
	}
	if st := r.dir.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d", st.Invalidations)
	}
	// Core 0 re-reads: a fresh (coherence) miss.
	m0 := r.l1s[0].Stats().Misses
	r.access(t, 0, 0x100, false)
	if r.l1s[0].Stats().Misses != m0+1 {
		t.Fatal("re-read after invalidation should miss")
	}
}

func TestDirtyCopyFlushedOnRemoteWrite(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x200, true) // core 0 owns dirty
	r.access(t, 1, 0x200, true) // core 1 writes: dirty data must be flushed
	if st := r.dir.Stats(); st.DirtyForwards != 1 {
		t.Fatalf("dirty forwards = %d", st.DirtyForwards)
	}
}

func TestReadDowngradesModifiedOwner(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x300, true)  // core 0 modified
	r.access(t, 1, 0x300, false) // core 1 read: owner downgraded + flush
	st := r.dir.Stats()
	if st.Downgrades != 1 {
		t.Fatalf("downgrades = %d", st.Downgrades)
	}
	if st.DirtyForwards != 1 {
		t.Fatalf("dirty forwards = %d", st.DirtyForwards)
	}
}

func TestWritebackReleasesState(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x400, true)
	// Evict via conflicting fills (4KB, 2-way, 32 sets: same set every
	// 2KB).
	r.access(t, 0, 0x400+2048, false)
	r.access(t, 0, 0x400+4096, false)
	for k := 0; k < 200; k++ {
		r.step()
	}
	// After the writeback, a remote write needs no invalidation.
	before := r.dir.Stats().Invalidations
	r.access(t, 1, 0x400, true)
	if got := r.dir.Stats().Invalidations; got != before {
		t.Fatalf("invalidations %d -> %d after the owner wrote back", before, got)
	}
}

func TestInvalidationLatencyCharged(t *testing.T) {
	fast := newRig(0)
	fast.access(t, 0, 0x500, false)
	start := fast.now
	fast.access(t, 1, 0x500, true)
	quick := fast.now - start

	slow := newRig(50)
	slow.access(t, 0, 0x500, false)
	start = slow.now
	slow.access(t, 1, 0x500, true)
	delayed := slow.now - start
	if delayed < quick+40 {
		t.Fatalf("invalidation latency not charged: %d vs %d", delayed, quick)
	}
}

func TestPingPongCostsMoreThanPrivate(t *testing.T) {
	// Two cores alternately writing the SAME block (true sharing ping-
	// pong) must run slower than writing DISTINCT blocks.
	elapsed := func(shared bool) uint64 {
		r := newRig(8)
		for k := 0; k < 20; k++ {
			addrA := uint64(0x800)
			addrB := uint64(0x800)
			if !shared {
				addrB = 0x8000
			}
			r.access(t, 0, addrA, true)
			r.access(t, 1, addrB, true)
		}
		return r.now
	}
	private, pingpong := elapsed(false), elapsed(true)
	if pingpong <= private {
		t.Fatalf("ping-pong (%d cycles) not slower than private (%d)", pingpong, private)
	}
}

func TestDirectoryStringAndReset(t *testing.T) {
	r := newRig(0)
	r.access(t, 0, 0x100, false)
	if r.dir.String() == "" {
		t.Fatal("empty string")
	}
	r.dir.ResetCounters()
	if r.dir.Stats().ReadFetches != 0 {
		t.Fatal("counters survive reset")
	}
	// State (tracked blocks) persists across counter resets.
	if r.dir.Stats().TrackedBlocks == 0 {
		t.Fatal("directory state lost on counter reset")
	}
}

// stubLower refuses the first refuse demand fetches it is offered, then
// accepts everything; it records the order accepted fetches arrive in.
type stubLower struct {
	refuse   int
	accepted []uint64
}

func (s *stubLower) Request(cycle uint64, src int, block uint64, write bool, done func(uint64)) bool {
	if done == nil {
		return true
	}
	if s.refuse > 0 {
		s.refuse--
		return false
	}
	s.accepted = append(s.accepted, block)
	return true
}

// TestFetchesCountForwardsNotAttempts: a fetch the lower layer refuses N
// times and then accepts is one forwarded fetch, on the direct path and
// on the delayed (invalidation-latency) path alike.
func TestFetchesCountForwardsNotAttempts(t *testing.T) {
	low := &stubLower{refuse: 3}
	d := New(make([]Invalidator, 2), low)
	tries := 0
	for cycle := uint64(1); !d.Request(cycle, 0, 7, false, func(uint64) {}); cycle++ {
		tries++
	}
	if st := d.Stats(); tries != 3 || st.ReadFetches != 1 || st.WriteFetches != 0 {
		t.Fatalf("after %d refusals: %+v, want ReadFetches 1", tries, st)
	}

	r := newRig(5)
	r.access(t, 0, 0x100, false) // a sharer for the write to kill
	low = &stubLower{refuse: 4}
	r.dir.lower = low
	r.dir.ResetCounters()
	if !r.dir.Request(r.now, 1, 0x100>>6, true, func(uint64) {}) {
		t.Fatal("a delayed write fetch must be accepted")
	}
	for k := 0; k < 20; k++ {
		r.now++
		r.dir.Tick(r.now)
	}
	if st := r.dir.Stats(); len(low.accepted) != 1 || st.WriteFetches != 1 || r.dir.Busy() {
		t.Fatalf("delayed fetch refused 4 times: accepted %d, %+v, busy %v; want one forward", len(low.accepted), st, r.dir.Busy())
	}
}

// TestDelayedFetchesMatchScanReference: under a lower layer that keeps
// refusing, the head-checked delayed queue forwards the same fetches on
// the same cycles as the scan it replaced (kept here verbatim: walk every
// entry, forward the due ones, re-queue a refused one for the next
// cycle), each exactly once and never before its invalidation latency
// expired, and the queue stays ordered by expiry.
func TestDelayedFetchesMatchScanReference(t *testing.T) {
	r := newRig(6)
	const n = 12
	for b := uint64(0); b < n; b++ {
		r.access(t, 0, b<<6, false) // core 0 shares every block
	}
	low, refLow := &stubLower{}, &stubLower{}
	r.dir.lower = low
	var ref []delayedReq
	refTick := func(cycle uint64) {
		keep := ref[:0]
		for _, q := range ref {
			if q.at > cycle {
				keep = append(keep, q)
				continue
			}
			if !refLow.Request(cycle, q.src, q.block, q.write, q.done) {
				rr := q
				rr.at = cycle + 1
				keep = append(keep, rr)
			}
		}
		ref = keep
	}
	issued := make(map[uint64]uint64) // block -> cycle its write fetch was accepted
	next := uint64(0)
	for k := 0; k < 200; k++ {
		r.now++
		if next < n && k%2 == 0 {
			done := func(uint64) {}
			if !r.dir.Request(r.now, 1, next, true, done) {
				t.Fatal("delayed write fetch refused")
			}
			ref = append(ref, delayedReq{src: 1, block: next, write: true, done: done, at: r.now + 6})
			issued[next] = r.now
			next++
		}
		if k%5 == 0 {
			low.refuse, refLow.refuse = 3, 3 // the head and its successors retry for a while
		}
		before := len(low.accepted)
		r.dir.Tick(r.now)
		refTick(r.now)
		for _, b := range low.accepted[before:] {
			if r.now < issued[b]+6 {
				t.Fatalf("block %d forwarded at %d, issued at %d with latency 6", b, r.now, issued[b])
			}
		}
		if len(low.accepted) != len(refLow.accepted) {
			t.Fatalf("cycle %d: forwarded %v, scan reference %v", r.now, low.accepted, refLow.accepted)
		}
		for i := r.dir.delayedHead + 1; i < len(r.dir.delayed); i++ {
			if r.dir.delayed[i].at < r.dir.delayed[i-1].at {
				t.Fatalf("cycle %d: delayed queue out of order at %d", r.now, i)
			}
		}
	}
	if len(low.accepted) != n || r.dir.Busy() {
		t.Fatalf("forwarded %d of %d delayed fetches, busy %v", len(low.accepted), n, r.dir.Busy())
	}
	for i := range low.accepted {
		if low.accepted[i] != refLow.accepted[i] {
			t.Fatalf("forward order %v, scan reference %v", low.accepted, refLow.accepted)
		}
	}
	if st := r.dir.Stats(); st.WriteFetches != n {
		t.Fatalf("WriteFetches = %d, want %d", st.WriteFetches, n)
	}
}

// TestCleanEvictionForgetsSharer: a clean line leaving an L1 clears that
// sharer, an entry nobody holds is dropped, and an owner's entry is left
// to its writeback.
func TestCleanEvictionForgetsSharer(t *testing.T) {
	r := newRig(0)
	// 4 KB 2-way L1s: addresses 2 KB apart share a set, so the third
	// read evicts the first block, clean.
	r.access(t, 0, 0x400, false)
	r.access(t, 1, 0x400, false)
	if n := r.dir.Stats().TrackedBlocks; n != 1 {
		t.Fatalf("tracked %d blocks, want 1", n)
	}
	r.access(t, 0, 0x400+2048, false)
	r.access(t, 0, 0x400+4096, false)
	if r.l1s[0].Contains(0x400) {
		t.Fatal("the conflicting fills did not evict the block")
	}
	if e := r.dir.blocks[0x400>>6]; e.sharers != 1<<1 {
		t.Fatalf("sharers = %b after core 0 evicted its clean copy, want core 1 only", e.sharers)
	}
	// The other two blocks are held by core 0 alone; evicting them clean
	// empties their entries, so occupancy stays level.
	tracked := r.dir.Stats().TrackedBlocks
	r.access(t, 0, 0x400+6144, false)
	r.access(t, 0, 0x400+8192, false)
	if got := r.dir.Stats().TrackedBlocks; got != tracked {
		t.Fatalf("tracked blocks %d -> %d: two fills should have dropped two entries", tracked, got)
	}
	// Core 1 write-misses a block and owns it; a stray clean-eviction
	// notice must not touch the owner's entry.
	r.access(t, 1, 0x9000, true)
	r.dir.EvictClean(1, 0x9000>>6)
	if e, ok := r.dir.blocks[0x9000>>6]; !ok || e.owner != 1 || e.sharers != 1<<1 {
		t.Fatalf("owner entry %+v (present %v) after EvictClean, want owner 1 kept", e, ok)
	}
}
