package cache

import (
	"testing"

	"lpm/internal/sim/dram"
)

// testCfg returns a small, permissive configuration.
func testCfg() Config {
	return Config{
		Name:       "L1-test",
		Size:       1 << 10, // 1 KB
		BlockSize:  64,
		Assoc:      2,
		HitLatency: 3,
		Ports:      2,
		Banks:      4,
		MSHRs:      4,
		Coalesce:   true,
		Repl:       LRU,
	}
}

// rig couples a cache to a fixed-latency lower layer and drives cycles.
type rig struct {
	c     *Cache
	lower *dram.Fixed
	now   uint64
}

func newRig(cfg Config, lat uint64) *rig {
	r := &rig{c: New(cfg), lower: &dram.Fixed{Latency: lat}}
	r.c.SetLower(r.lower)
	return r
}

// step advances one cycle (cache before lower, as the chip does).
func (r *rig) step() {
	r.now++
	r.c.Tick(r.now)
	r.lower.Tick(r.now)
}

// access submits an access at the current cycle boundary and returns a
// completion flag pointer.
func (r *rig) access(addr uint64, write bool) *bool {
	done := new(bool)
	if !r.c.Access(r.now+1, addr, write, func(uint64) { *done = true }) {
		t := new(bool)
		*t = false
		return t
	}
	return done
}

// runUntil advances until pred or the cycle budget runs out, returning
// whether pred held.
func (r *rig) runUntil(pred func() bool, budget int) bool {
	for i := 0; i < budget; i++ {
		if pred() {
			return true
		}
		r.step()
	}
	return pred()
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Size = 0 },
		func(c *Config) { c.BlockSize = 48 },
		func(c *Config) { c.BlockSize = 2 },
		func(c *Config) { c.Size = 100 },
		func(c *Config) { c.Assoc = 0 },
		func(c *Config) { c.Assoc = 1024 }, // fewer than one set
		func(c *Config) { c.HitLatency = 0 },
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.MSHRTargets = -1 },
	}
	for i, mut := range bads {
		c := testCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestConfigSets(t *testing.T) {
	c := testCfg()
	if c.Sets() != 8 { // 1024 / (64*2)
		t.Fatalf("sets = %d, want 8", c.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	r := newRig(testCfg(), 20)
	d1 := r.access(0x100, false)
	if !r.runUntil(func() bool { return *d1 }, 100) {
		t.Fatal("first access never completed")
	}
	missCycles := r.now
	if !r.c.Contains(0x100) {
		t.Fatal("block not installed after fill")
	}
	d2 := r.access(0x100, false)
	if !r.runUntil(func() bool { return *d2 }, 100) {
		t.Fatal("second access never completed")
	}
	hitCycles := r.now - missCycles
	if hitCycles >= missCycles {
		t.Fatalf("hit (%d cycles) not faster than miss (%d cycles)", hitCycles, missCycles)
	}
	st := r.c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// Hit latency: access enters service next cycle, resolves HitLatency
	// later, so ~HitLatency+1 cycles end to end.
	if hitCycles > uint64(r.c.Config().HitLatency)+2 {
		t.Fatalf("hit took %d cycles, config says %d", hitCycles, r.c.Config().HitLatency)
	}
}

func TestAnalyzerHMatchesHitLatency(t *testing.T) {
	r := newRig(testCfg(), 10)
	// Warm a block then hit it many times, serially.
	d := r.access(0x40, false)
	r.runUntil(func() bool { return *d }, 100)
	for i := 0; i < 20; i++ {
		d := r.access(0x40, false)
		if !r.runUntil(func() bool { return *d }, 50) {
			t.Fatal("hit did not complete")
		}
	}
	p := r.c.Analyzer().Snapshot()
	if p.H() != 3 {
		t.Fatalf("measured H = %v, want 3", p.H())
	}
}

func TestMSHRCoalescing(t *testing.T) {
	r := newRig(testCfg(), 50)
	// Two accesses to the same block, issued together: one memory fetch.
	d1 := r.access(0x200, false)
	d2 := r.access(0x208, false)
	if !r.runUntil(func() bool { return *d1 && *d2 }, 200) {
		t.Fatal("accesses did not complete")
	}
	if got := r.lower.Count(); got != 1 {
		t.Fatalf("lower saw %d fetches, want 1 (coalesced)", got)
	}
	if st := r.c.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
}

func TestNoCoalescingAblation(t *testing.T) {
	cfg := testCfg()
	cfg.Coalesce = false
	r := newRig(cfg, 50)
	d1 := r.access(0x200, false)
	d2 := r.access(0x208, false)
	if !r.runUntil(func() bool { return *d1 && *d2 }, 400) {
		t.Fatal("accesses did not complete")
	}
	// The second access waits for an MSHR-free or fill; it must NOT share
	// the first fetch, so it either refetches or completes from the
	// installed block after waiting.
	if st := r.c.Stats(); st.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0", st.Coalesced)
	}
}

func TestMSHRLimitForcesWaiting(t *testing.T) {
	cfg := testCfg()
	cfg.MSHRs = 1
	cfg.Ports = 4
	r := newRig(cfg, 60)
	// Two different blocks: second miss must wait for the single MSHR.
	d1 := r.access(0x000, false)
	d2 := r.access(0x400, false)
	if !r.runUntil(func() bool { return *d1 && *d2 }, 500) {
		t.Fatal("accesses did not complete")
	}
	if st := r.c.Stats(); st.MSHRWaits == 0 {
		t.Fatal("expected MSHR waits with a single MSHR")
	}
}

func TestPortLimit(t *testing.T) {
	cfg := testCfg()
	cfg.Ports = 1
	cfg.HitLatency = 1
	r := newRig(cfg, 5)
	// Warm two blocks.
	a := r.access(0x000, false)
	b := r.access(0x040, false)
	r.runUntil(func() bool { return *a && *b }, 100)
	start := r.now
	// Four hits submitted at once through one port: ~4 cycles of starts.
	var flags []*bool
	for i := 0; i < 4; i++ {
		addr := uint64(0x000)
		if i%2 == 1 {
			addr = 0x040
		}
		flags = append(flags, r.access(addr, false))
	}
	all := func() bool {
		for _, f := range flags {
			if !*f {
				return false
			}
		}
		return true
	}
	if !r.runUntil(all, 100) {
		t.Fatal("hits did not complete")
	}
	elapsed := r.now - start
	if elapsed < 5 { // 4 serial starts + latency 1 (+1 hop)
		t.Fatalf("4 accesses through 1 port finished in %d cycles; port limit not enforced", elapsed)
	}

	// Same burst with 4 ports should be much faster.
	cfg4 := cfg
	cfg4.Ports = 4
	cfg4.Banks = 4
	r4 := newRig(cfg4, 5)
	a = r4.access(0x000, false)
	b = r4.access(0x040, false)
	r4.runUntil(func() bool { return *a && *b }, 100)
	start4 := r4.now
	flags = flags[:0]
	for i := 0; i < 4; i++ {
		addr := uint64(0x000)
		if i%2 == 1 {
			addr = 0x040
		}
		flags = append(flags, r4.access(addr, false))
	}
	if !r4.runUntil(all, 100) {
		t.Fatal("hits did not complete on 4-port cache")
	}
	if r4.now-start4 >= elapsed {
		t.Fatalf("4 ports (%d cycles) not faster than 1 port (%d cycles)", r4.now-start4, elapsed)
	}
}

func TestBankConflict(t *testing.T) {
	cfg := testCfg()
	cfg.Ports = 4
	cfg.Banks = 1 // every access conflicts
	cfg.HitLatency = 1
	r := newRig(cfg, 5)
	a := r.access(0x000, false)
	r.runUntil(func() bool { return *a }, 100)
	start := r.now
	var flags []*bool
	for i := 0; i < 4; i++ {
		flags = append(flags, r.access(0x000, false))
	}
	all := func() bool {
		for _, f := range flags {
			if !*f {
				return false
			}
		}
		return true
	}
	if !r.runUntil(all, 100) {
		t.Fatal("accesses did not complete")
	}
	if r.now-start < 5 {
		t.Fatalf("single bank served 4 accesses in %d cycles", r.now-start)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := testCfg() // 8 sets, 2-way; same set every 8 blocks (512 B)
	r := newRig(cfg, 10)
	// Fill set 0 with blocks A (0x000) and B (0x200), touch A, then load
	// C (0x400): LRU should evict B.
	for _, addr := range []uint64{0x000, 0x200} {
		d := r.access(addr, false)
		r.runUntil(func() bool { return *d }, 100)
	}
	d := r.access(0x000, false) // touch A
	r.runUntil(func() bool { return *d }, 100)
	d = r.access(0x400, false) // C evicts LRU = B
	r.runUntil(func() bool { return *d }, 100)
	if !r.c.Contains(0x000) {
		t.Fatal("recently used block evicted under LRU")
	}
	if r.c.Contains(0x200) {
		t.Fatal("LRU block survived")
	}
	if !r.c.Contains(0x400) {
		t.Fatal("new block not installed")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := testCfg()
	r := newRig(cfg, 10)
	// Store to A (dirty), fill B and C in the same set to evict A.
	d := r.access(0x000, true)
	r.runUntil(func() bool { return *d }, 100)
	for _, addr := range []uint64{0x200, 0x400} {
		d := r.access(addr, false)
		r.runUntil(func() bool { return *d }, 100)
	}
	r.runUntil(func() bool { return !r.c.Busy() }, 100)
	if st := r.c.Stats(); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	// 3 fetches + 1 writeback reach the lower layer.
	if got := r.lower.Count(); got != 4 {
		t.Fatalf("lower requests = %d, want 4", got)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	cfg := testCfg()
	r := newRig(cfg, 10)
	for _, addr := range []uint64{0x000, 0x200, 0x400} {
		d := r.access(addr, false)
		r.runUntil(func() bool { return *d }, 100)
	}
	r.runUntil(func() bool { return !r.c.Busy() }, 100)
	if st := r.c.Stats(); st.Writebacks != 0 {
		t.Fatalf("writebacks = %d, want 0", st.Writebacks)
	}
}

func TestStoreHitSetsDirtyViaLaterEviction(t *testing.T) {
	cfg := testCfg()
	r := newRig(cfg, 10)
	// Load A (clean), then store-hit A, then evict: must write back.
	d := r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 100)
	d = r.access(0x008, true) // same block, store hit
	r.runUntil(func() bool { return *d }, 100)
	for _, addr := range []uint64{0x200, 0x400} {
		d := r.access(addr, false)
		r.runUntil(func() bool { return *d }, 100)
	}
	r.runUntil(func() bool { return !r.c.Busy() }, 200)
	if st := r.c.Stats(); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestRequestInterfaceOneCycleHop(t *testing.T) {
	// Drive the cache through its Lower interface, as an L2 sees traffic.
	r := newRig(testCfg(), 10)
	done := false
	if !r.c.Request(r.now, 0, 0x10 /* block addr */, false, func(uint64) { done = true }) {
		t.Fatal("request rejected")
	}
	if !r.runUntil(func() bool { return done }, 100) {
		t.Fatal("request never completed")
	}
	if !r.c.Contains(0x10 << 6) {
		t.Fatal("block not cached after fill")
	}
}

func TestWritebackAbsorbedWhenPresent(t *testing.T) {
	r := newRig(testCfg(), 10)
	d := r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 100)
	before := r.lower.Count()
	// Writeback from above for the cached block: absorbed, no new lower
	// traffic.
	if !r.c.Request(r.now, 0, 0, true, nil) {
		t.Fatal("writeback rejected")
	}
	r.runUntil(func() bool { return !r.c.Busy() }, 100)
	if r.lower.Count() != before {
		t.Fatal("absorbed writeback still reached lower layer")
	}
}

func TestWritebackForwardedWhenAbsent(t *testing.T) {
	r := newRig(testCfg(), 10)
	if !r.c.Request(r.now, 0, 0x7777, true, nil) {
		t.Fatal("writeback rejected")
	}
	if !r.runUntil(func() bool { return r.lower.Count() == 1 }, 100) {
		t.Fatal("missing-block writeback not forwarded down")
	}
}

func TestInputQueueBackpressure(t *testing.T) {
	cfg := testCfg()
	cfg.InputQueue = 2
	cfg.Ports = 1
	r := newRig(cfg, 50)
	accepted := 0
	for i := 0; i < 10; i++ {
		if r.c.Access(r.now+1, uint64(i)*64, false, func(uint64) {}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 (queue bound)", accepted)
	}
	if st := r.c.Stats(); st.Rejected != 8 {
		t.Fatalf("rejected = %d, want 8", st.Rejected)
	}
}

func TestPureMissVsMaskedMissInCache(t *testing.T) {
	// A lone miss (nothing else in flight) must be pure; a miss overlapped
	// by a stream of hits must not be.
	cfg := testCfg()
	r := newRig(cfg, 30)
	d := r.access(0x600, false)
	r.runUntil(func() bool { return *d }, 200)
	p := r.c.Analyzer().Snapshot()
	if p.PureMisses != 1 {
		t.Fatalf("lone miss: pure misses = %d, want 1", p.PureMisses)
	}

	r2 := newRig(cfg, 30)
	// Warm a hit block.
	d0 := r2.access(0x000, false)
	r2.runUntil(func() bool { return *d0 }, 200)
	r2.c.ResetCounters() // discard the warm-up miss (itself pure)
	// Launch the miss, then keep hitting 0x000 continuously.
	miss := r2.access(0x600, false)
	for i := 0; i < 40 && !*miss; i++ {
		r2.access(0x000, false)
		r2.step()
	}
	r2.runUntil(func() bool { return !r2.c.Busy() }, 200)
	p2 := r2.c.Analyzer().Snapshot()
	if p2.Misses < 1 {
		t.Fatal("miss lost")
	}
	if p2.PureMisses != 0 {
		t.Fatalf("hit-masked miss counted pure (pure=%d)", p2.PureMisses)
	}
	if p2.CAMAT() >= p2.AMAT() {
		t.Fatalf("C-AMAT %.3f not below AMAT %.3f despite masking", p2.CAMAT(), p2.AMAT())
	}
}

func TestResetCountersKeepsState(t *testing.T) {
	r := newRig(testCfg(), 10)
	d := r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 100)
	r.c.ResetCounters()
	if st := r.c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Fatal("counters not reset")
	}
	// Block must still be cached.
	d = r.access(0x000, false)
	r.runUntil(func() bool { return *d }, 100)
	if st := r.c.Stats(); st.Hits != 1 {
		t.Fatalf("hits after reset = %d, want 1 (state preserved)", st.Hits)
	}
}

func TestRandomReplacementStillCorrect(t *testing.T) {
	cfg := testCfg()
	cfg.Repl = RandomRepl
	r := newRig(cfg, 10)
	// Run a conflict-heavy sequence; everything must complete.
	var flags []*bool
	for i := 0; i < 8; i++ {
		flags = append(flags, r.access(uint64(i)*0x200, false))
		r.step()
		r.step()
	}
	all := func() bool {
		for _, f := range flags {
			if !*f {
				return false
			}
		}
		return true
	}
	if !r.runUntil(all, 2000) {
		t.Fatal("accesses lost under random replacement")
	}
}

func TestHitsPlusMissesEqualsCompleted(t *testing.T) {
	r := newRig(testCfg(), 25)
	for i := 0; i < 200; i++ {
		r.access(uint64(i*104729)%4096, i%3 == 0)
		r.step()
	}
	if !r.runUntil(func() bool { return !r.c.Busy() }, 4000) {
		t.Fatal("cache did not drain")
	}
	st := r.c.Stats()
	p := r.c.Analyzer().Snapshot()
	if st.Hits+st.Misses != p.Completed {
		t.Fatalf("hits(%d)+misses(%d) != completed(%d)", st.Hits, st.Misses, p.Completed)
	}
	if p.Accesses != p.Completed {
		t.Fatalf("drained but accesses(%d) != completed(%d)", p.Accesses, p.Completed)
	}
	if st.Misses != p.Misses {
		t.Fatalf("stats misses %d != analyzer misses %d", st.Misses, p.Misses)
	}
}

func TestReplPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || RandomRepl.String() != "Random" || FIFORepl.String() != "FIFO" {
		t.Fatal("bad policy names")
	}
	if ReplPolicy(9).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}
