package cache

import (
	"testing"

	"lpm/internal/sim/dram"
)

func TestInsertPolicyString(t *testing.T) {
	if MRUInsert.String() != "MRU" || LIPInsert.String() != "LIP" || BIPInsert.String() != "BIP" {
		t.Fatal("policy names")
	}
	if InsertPolicy(9).String() == "" {
		t.Fatal("unknown policy empty")
	}
}

func TestValidatePartitionAndQuota(t *testing.T) {
	good := testCfg()
	good.PartitionWays = map[int][]int{0: {0}, 1: {1}}
	good.MSHRQuota = map[int]int{0: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.PartitionWays = map[int][]int{0: {}}
	if err := bad.Validate(); err == nil {
		t.Error("empty partition accepted")
	}
	bad = testCfg()
	bad.PartitionWays = map[int][]int{0: {5}} // assoc is 2
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range way accepted")
	}
	bad = testCfg()
	bad.MSHRQuota = map[int]int{0: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero quota accepted")
	}
	bad = testCfg()
	bad.MSHRQuota = map[int]int{-1: 2}
	if err := bad.Validate(); err == nil {
		t.Error("quota for a negative requestor accepted")
	}
	bad = testCfg()
	bad.Prefetch = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative prefetch accepted")
	}
}

func TestWayPartitioningIsolatesRequestors(t *testing.T) {
	// 2-way cache partitioned: src 0 -> way 0, src 1 -> way 1. Src 1's
	// fills must never evict src 0's block even under conflict pressure.
	cfg := testCfg()
	cfg.PartitionWays = map[int][]int{0: {0}, 1: {1}}
	r := newRig(cfg, 10)

	// Src 0 installs block 0x000 (set 0).
	fill := false
	r.c.Request(r.now, 0, 0x000>>6, false, func(uint64) { fill = true })
	r.runUntil(func() bool { return fill }, 200)
	if !r.c.Contains(0x000) {
		t.Fatal("src 0 block not installed")
	}

	// Src 1 streams many conflicting blocks through the same set.
	for i := 1; i <= 6; i++ {
		f := false
		r.c.Request(r.now, 1, uint64(i*8) /* same set every 8 blocks */, false, func(uint64) { f = true })
		if !r.runUntil(func() bool { return f }, 300) {
			t.Fatal("src 1 fill lost")
		}
	}
	if !r.c.Contains(0x000) {
		t.Fatal("partitioned block evicted by another requestor")
	}
}

func TestUnpartitionedSourceUsesAllWays(t *testing.T) {
	cfg := testCfg()
	cfg.PartitionWays = map[int][]int{7: {0}} // only src 7 restricted
	r := newRig(cfg, 10)
	// Src 0 (not in the map) fills both ways of set 0.
	for i := 0; i < 2; i++ {
		f := false
		r.c.Request(r.now, 0, uint64(i*8), false, func(uint64) { f = true })
		r.runUntil(func() bool { return f }, 300)
	}
	if !r.c.Contains(0x000) || !r.c.Contains(8<<6) {
		t.Fatal("unrestricted source could not use both ways")
	}
}

func TestMSHRQuotaBoundsOneRequestor(t *testing.T) {
	cfg := testCfg()
	cfg.MSHRs = 4
	cfg.Ports = 4
	cfg.MSHRQuota = map[int]int{1: 1}
	r := newRig(cfg, 80)
	// Src 1 issues two distinct-block misses; the second must wait for
	// the quota even though MSHRs are free.
	var f1, f2 bool
	r.c.Request(r.now, 1, 0x10, false, func(uint64) { f1 = true })
	r.c.Request(r.now, 1, 0x20, false, func(uint64) { f2 = true })
	if !r.runUntil(func() bool { return f1 && f2 }, 1000) {
		t.Fatal("quota deadlocked the requestor")
	}
	if r.c.Stats().QuotaWaits == 0 {
		t.Fatal("expected quota waits")
	}

	// An unquota'd requestor is not affected.
	r2 := newRig(cfg, 80)
	var g1, g2 bool
	r2.c.Request(r2.now, 0, 0x10, false, func(uint64) { g1 = true })
	r2.c.Request(r2.now, 0, 0x20, false, func(uint64) { g2 = true })
	if !r2.runUntil(func() bool { return g1 && g2 }, 1000) {
		t.Fatal("unquota'd requestor blocked")
	}
	if r2.c.Stats().QuotaWaits != 0 {
		t.Fatal("quota charged to wrong requestor")
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = 1
	cfg.MSHRs = 8
	r := newRig(cfg, 20)
	// Miss block 0: the prefetcher should also fetch block 1.
	d := r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 200)
	r.runUntil(func() bool { return !r.c.Busy() }, 200)
	if !r.c.Contains(0x040) {
		t.Fatal("next line not prefetched")
	}
	st := r.c.Stats()
	if st.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", st.Prefetches)
	}
	// A demand access to the prefetched block is a hit and counts useful.
	d2 := r.access(0x040, false)
	r.runUntil(func() bool { return *d2 }, 200)
	st = r.c.Stats()
	if st.PrefetchUseful != 1 {
		t.Fatalf("useful = %d, want 1", st.PrefetchUseful)
	}
	if st.Hits != 1 {
		t.Fatalf("prefetched block missed on demand (hits=%d)", st.Hits)
	}
}

func TestPrefetcherSkipsPresentAndPending(t *testing.T) {
	cfg := testCfg()
	cfg.Prefetch = 2
	cfg.MSHRs = 8
	r := newRig(cfg, 20)
	// Warm block 1; its own prefetches bring in blocks 2 and 3.
	d := r.access(0x040, false)
	r.runUntil(func() bool { return *d }, 200)
	r.runUntil(func() bool { return !r.c.Busy() }, 300)
	r.c.ResetCounters()
	// Miss block 0: both prefetch candidates (1, 2) are present — no
	// prefetch traffic.
	d = r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 200)
	r.runUntil(func() bool { return !r.c.Busy() }, 300)
	if st := r.c.Stats(); st.Prefetches != 0 {
		t.Fatalf("prefetches = %d, want 0 (candidates present)", st.Prefetches)
	}
	// Miss a distant block: both candidates fresh.
	d = r.access(0x800, false)
	r.runUntil(func() bool { return *d }, 200)
	r.runUntil(func() bool { return !r.c.Busy() }, 300)
	if st := r.c.Stats(); st.Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2", st.Prefetches)
	}
}

func TestPrefetchImprovesSequentialStream(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := testCfg()
		cfg.Prefetch = degree
		cfg.MSHRs = 8
		r := newRig(cfg, 40)
		var doneCount int
		for i := 0; i < 32; i++ {
			addr := uint64(i) * 64
			for !r.c.Access(r.now+1, addr, false, func(uint64) { doneCount++ }) {
				r.step()
			}
			r.step()
		}
		r.runUntil(func() bool { return doneCount == 32 }, 5000)
		return r.now
	}
	base, pf := run(0), run(2)
	if pf >= base {
		t.Fatalf("prefetch degree 2 (%d cycles) not faster than none (%d cycles)", pf, base)
	}
}

func TestLIPInsertResistsStreamPollution(t *testing.T) {
	// A hot block is re-touched while a stream floods the same set.
	// Under MRU insertion the stream evicts the hot block far more often
	// than under LIP.
	missesFor := func(ins InsertPolicy) uint64 {
		cfg := testCfg() // 8 sets, 2-way
		cfg.Insert = ins
		r := newRig(cfg, 15)
		hot := uint64(0x000)
		// Warm the hot block, then touch it once: a demand hit promotes
		// it in the recency order regardless of insertion policy.
		d := r.access(hot, false)
		r.runUntil(func() bool { return *d }, 200)
		d = r.access(hot, false)
		r.runUntil(func() bool { return *d }, 200)
		r.c.ResetCounters()
		for i := 1; i <= 20; i++ {
			// Two streaming blocks through set 0 per hot touch: enough
			// pressure to wash a 2-way set under MRU insertion.
			for j := 0; j < 2; j++ {
				s := r.access(uint64((2*i+j)*8)<<6, false)
				r.runUntil(func() bool { return *s }, 300)
			}
			h := r.access(hot, false)
			r.runUntil(func() bool { return *h }, 300)
		}
		return r.c.Stats().Misses
	}
	mru, lip := missesFor(MRUInsert), missesFor(LIPInsert)
	if lip >= mru {
		t.Fatalf("LIP (%d misses) not better than MRU (%d misses) under streaming", lip, mru)
	}
}

func TestBIPInsertOccasionallyPromotes(t *testing.T) {
	// BIP must sometimes insert at MRU: across many fills into a 2-way
	// set, at least one fill should survive a subsequent fill (which it
	// would not under pure LIP, where every fill lands at LRU).
	cfg := testCfg()
	cfg.Insert = BIPInsert
	r := newRig(cfg, 10)
	promoted := false
	for i := 0; i < 200 && !promoted; i += 2 {
		a := uint64(i*8) << 6
		b := uint64((i+1)*8) << 6
		da := r.access(a, false)
		r.runUntil(func() bool { return *da }, 300)
		db := r.access(b, false)
		r.runUntil(func() bool { return *db }, 300)
		// If a survived b's fill, a was promoted to MRU on insert.
		if r.c.Contains(a) {
			promoted = true
		}
	}
	if !promoted {
		t.Fatal("BIP never promoted a fill to MRU")
	}
}

func TestPrefetchWithFixedLower(t *testing.T) {
	// Prefetch fills must not confuse the analyzer: no demand accesses,
	// no analyzer records.
	cfg := testCfg()
	cfg.Prefetch = 3
	r := &rig{c: New(cfg), lower: &dram.Fixed{Latency: 5}}
	r.c.SetLower(r.lower)
	d := r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 200)
	r.runUntil(func() bool { return !r.c.Busy() }, 300)
	p := r.c.Analyzer().Snapshot()
	if p.Accesses != 1 || p.Completed != 1 {
		t.Fatalf("analyzer saw %d/%d accesses; prefetches must be invisible", p.Accesses, p.Completed)
	}
	if r.c.Stats().Prefetches != 3 {
		t.Fatalf("prefetches = %d", r.c.Stats().Prefetches)
	}
}
