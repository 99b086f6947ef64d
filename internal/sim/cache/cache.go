package cache

import (
	"fmt"

	"lpm/internal/analyzer"
	"lpm/internal/obs"
	"lpm/internal/stats"
)

// line is one way of the tag store, 16 bytes: the tag word packs the
// block address above the dirty and valid bits (block<<2 | dirty<<1 |
// valid), which Config.Validate's BlockSize >= 4 keeps from overflowing.
type line struct {
	tag  uint64
	used uint64 // LRU touch stamp, or fill stamp under FIFO
}

// Tag-word layout: the state bits, and the shift that puts the block
// address above them.
const (
	validBit = 1
	dirtyBit = 2
	tagShift = 2
)

// tagWord packs a valid line's tag word.
func tagWord(block uint64, dirty bool) uint64 {
	if dirty {
		return block<<tagShift | dirtyBit | validBit
	}
	return block<<tagShift | validBit
}

// block returns the block address a line holds.
func (l *line) block() uint64 { return l.tag >> tagShift }

// pageSets is the number of sets in one page of the tag store.
const pageSets = 64

// inputReq is a request accepted from above but not yet in service.
type inputReq struct {
	addr  uint64
	write bool
	src   int    // upstream requestor (event tracing)
	at    uint64 // earliest service cycle
	done  func(cycle uint64)
}

// inflight is an access in the hit pipeline.
type inflight struct {
	addr  uint64
	write bool
	src   int
	start uint64 // cycle service began (event tracing)
	ready uint64 // cycle the hit operation resolves
	done  func(cycle uint64)
	rec   *analyzer.Access
}

// target is one access coalesced under an MSHR.
type target struct {
	write bool
	src   int
	start uint64 // cycle service began (event tracing)
	done  func(cycle uint64)
	rec   *analyzer.Access
}

// mshrEntry tracks one outstanding missed block.
type mshrEntry struct {
	block   uint64
	targets []target
	issued  bool
	write   bool // a store is among the targets: fill installs dirty
	// fill is the downstream completion callback, built once per entry
	// (entries are pooled): it parks the entry for installation at the
	// start of the next cycle.
	fill func(cycle uint64)
}

// Stats collects cache event counters beyond the analyzer's cycle
// classification.
type Stats struct {
	// Accesses counts demand accesses that entered service.
	Accesses uint64
	// Hits and Misses partition completed demand accesses.
	Hits, Misses uint64
	// Coalesced counts secondary misses attached to an existing MSHR.
	Coalesced uint64
	// PrimaryMisses counts MSHR allocations — distinct block fetches sent
	// to the lower layer. This is the "request rate" the LPM model's MR
	// terms use (Eq. 10/11): secondary (coalesced) misses never reach the
	// next layer.
	PrimaryMisses uint64
	// MSHRWaits counts accesses that had to wait for an MSHR or target
	// slot after missing.
	MSHRWaits uint64
	// Rejected counts demand accesses refused for a full input queue.
	Rejected uint64
	// Writebacks counts dirty evictions sent down.
	Writebacks uint64
	// Evictions counts total evictions of valid lines.
	Evictions uint64
	// Invalidations counts lines removed by coherence actions.
	Invalidations uint64
}

// Sub returns the counter-wise difference s - o, for windowed deltas of
// cumulative counters (o must be an earlier snapshot of the same cache).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:      s.Accesses - o.Accesses,
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		Coalesced:     s.Coalesced - o.Coalesced,
		PrimaryMisses: s.PrimaryMisses - o.PrimaryMisses,
		MSHRWaits:     s.MSHRWaits - o.MSHRWaits,
		Rejected:      s.Rejected - o.Rejected,
		Writebacks:    s.Writebacks - o.Writebacks,
		Evictions:     s.Evictions - o.Evictions,
		Invalidations: s.Invalidations - o.Invalidations,
	}
}

// Cache is a cycle-driven non-blocking cache. Create with New, connect a
// lower layer with SetLower, then call Tick once per cycle (upper layers
// first). It implements Lower so caches stack directly.
type Cache struct {
	cfg   Config
	an    *analyzer.Analyzer
	lower Lower
	// pages is the tag store: a fixed table of set-major pages of
	// pageSets sets (the last one may be short), set s at
	// pages[s/pageSets][s%pageSets*assoc:][:assoc]. A page stays nil
	// until the first install into it, and a probe of a nil page is a
	// miss. The table never grows and pages never move, so a *line
	// stays valid.
	pages     [][]line
	nSets     uint64
	assoc     uint64
	blockBits uint
	rng       *stats.RNG

	now   uint64
	input []inputReq
	// pipe is the hit pipeline, a FIFO: pipe[pipeHead:] are the accesses
	// in their hit phase, in start order. HitLatency is one constant per
	// cache, so ready = start + HitLatency never decreases along it and
	// only the head can be due.
	pipe      []inflight
	pipeHead  int
	mshrs     []*mshrEntry // outstanding missed blocks, at most cfg.MSHRs, unordered
	waiting   []inflight   // missed, waiting for an MSHR/target slot
	issueQ    []*mshrEntry
	wbQ       []uint64 // block addresses to write back
	fills     []*mshrEntry
	fillsNext []*mshrEntry // fills arriving during this cycle, for next Tick
	mshrFree  []*mshrEntry // recycled entries (with their fill closures)

	maxTargets int
	maxInput   int
	warmLower  Warmer       // lower's functional-tier surface (nil if none)
	cleanLower CleanEvictee // lower's clean-eviction surface (nil if none)

	st Stats
	ob *cacheObs   // nil unless AttachObs was called
	tr *obs.Tracer // nil unless AttachTracer was called
}

// cacheObs holds the cache's registered metric handles.
type cacheObs struct {
	accesses, hits, misses, primaryMisses, coalesced, mshrWaits,
	rejected, writebacks, evictions, invalidations *obs.Counter
	missRate *obs.Gauge
	mshrOcc  *obs.Histogram
}

// AttachObs registers this cache's metrics under prefix (e.g. "l1.0")
// and starts per-cycle MSHR-occupancy sampling. A nil registry leaves
// the cache unobserved (the zero-cost default).
func (c *Cache) AttachObs(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	buckets := c.cfg.MSHRs + 1
	if buckets > 32 {
		buckets = 32
	}
	c.ob = &cacheObs{
		accesses:      r.Counter(prefix + ".accesses"),
		hits:          r.Counter(prefix + ".hits"),
		misses:        r.Counter(prefix + ".misses"),
		primaryMisses: r.Counter(prefix + ".primary_misses"),
		coalesced:     r.Counter(prefix + ".coalesced"),
		mshrWaits:     r.Counter(prefix + ".mshr_waits"),
		rejected:      r.Counter(prefix + ".rejected"),
		writebacks:    r.Counter(prefix + ".writebacks"),
		evictions:     r.Counter(prefix + ".evictions"),
		invalidations: r.Counter(prefix + ".invalidations"),
		missRate:      r.Gauge(prefix + ".miss_rate"),
		mshrOcc:       r.Histogram(prefix+".mshr_occupancy", 0, float64(c.cfg.MSHRs+1), buckets),
	}
}

// AttachTracer starts emitting one lifecycle event per completed demand
// access (hits and miss fills). A nil tracer disables tracing.
func (c *Cache) AttachTracer(t *obs.Tracer) { c.tr = t }

// PublishObs copies the current event counters into the registry; the
// chip calls it before snapshotting so registry values always reflect
// the measurement window (Stats is reset by ResetCounters).
func (c *Cache) PublishObs() {
	if c.ob == nil {
		return
	}
	c.ob.accesses.Set(c.st.Accesses)
	c.ob.hits.Set(c.st.Hits)
	c.ob.misses.Set(c.st.Misses)
	c.ob.primaryMisses.Set(c.st.PrimaryMisses)
	c.ob.coalesced.Set(c.st.Coalesced)
	c.ob.mshrWaits.Set(c.st.MSHRWaits)
	c.ob.rejected.Set(c.st.Rejected)
	c.ob.writebacks.Set(c.st.Writebacks)
	c.ob.evictions.Set(c.st.Evictions)
	c.ob.invalidations.Set(c.st.Invalidations)
	if done := c.st.Hits + c.st.Misses; done > 0 {
		c.ob.missRate.Set(float64(c.st.Misses) / float64(done))
	} else {
		c.ob.missRate.Set(0)
	}
}

// New returns a cache built from cfg with an attached analyzer. It panics
// on invalid configuration, since configurations are program constants in
// this reproduction.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	blockBits := uint(0)
	for b := cfg.BlockSize; b > 1; b >>= 1 {
		blockBits++
	}
	maxTargets := cfg.MSHRTargets
	if maxTargets == 0 {
		maxTargets = 8
	}
	maxInput := cfg.InputQueue
	if maxInput == 0 {
		maxInput = 2*cfg.Ports + 8
	}
	return &Cache{
		cfg:        cfg,
		an:         analyzer.New(cfg.Name),
		pages:      make([][]line, (nSets+pageSets-1)/pageSets),
		nSets:      nSets,
		assoc:      uint64(cfg.Assoc),
		blockBits:  blockBits,
		rng:        stats.NewRNG(cfg.Seed ^ 0xcac4e),
		maxTargets: maxTargets,
		maxInput:   maxInput,
	}
}

// SetLower connects the next layer down.
func (c *Cache) SetLower(l Lower) {
	c.lower = l
	c.warmLower, _ = l.(Warmer)
	c.cleanLower, _ = l.(CleanEvictee)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Analyzer returns the attached C-AMAT analyzer.
func (c *Cache) Analyzer() *analyzer.Analyzer { return c.an }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.st }

// ResetCounters zeroes analyzer and event counters while keeping all
// in-flight state, for interval-based online measurement.
func (c *Cache) ResetCounters() {
	c.an.ResetCounters()
	c.st = Stats{}
}

// Busy reports whether any access, miss, fill or writeback is still in
// flight; used to drain the hierarchy at end of simulation.
func (c *Cache) Busy() bool {
	return len(c.input) > 0 || c.pipeHead < len(c.pipe) || len(c.mshrs) > 0 ||
		len(c.waiting) > 0 || len(c.issueQ) > 0 || len(c.wbQ) > 0 ||
		len(c.fills) > 0 || len(c.fillsNext) > 0
}

// OutstandingMisses returns the current MSHR population — the per-cycle
// occupancy probe of the time-series sampler and the "is this layer
// still working a miss" signal of the stall attribution.
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// ServiceActive reports whether the cache is actively working demand
// accesses this cycle (queued, in the hit pipeline, or parked awaiting
// MSHR capacity) — distinguishing hit-path pressure from idle.
func (c *Cache) ServiceActive() bool {
	return len(c.input) > 0 || c.pipeHead < len(c.pipe) || len(c.waiting) > 0
}

// block maps an address to its block address.
func (c *Cache) block(addr uint64) uint64 { return addr >> c.blockBits }

// set returns the ways of the set block maps to (set block % nSets), or
// nil while its page holds no install.
func (c *Cache) set(block uint64) []line {
	s := block % c.nSets
	if p := c.pages[s/pageSets]; p != nil {
		s = s % pageSets * c.assoc
		return p[s : s+c.assoc]
	}
	return nil
}

// fillSet is set for an install: the first fill into a page allocates it.
func (c *Cache) fillSet(block uint64) []line {
	if p := block % c.nSets / pageSets; c.pages[p] == nil {
		c.pages[p] = make([]line, min(pageSets, c.nSets-p*pageSets)*c.assoc)
	}
	return c.set(block)
}

// find returns the valid way holding block, or nil.
func (c *Cache) find(block uint64) *line {
	set := c.set(block)
	want := block<<tagShift | validBit
	for i := range set {
		if set[i].tag&^dirtyBit == want {
			return &set[i]
		}
	}
	return nil
}

// bank maps a block address to its bank.
func (c *Cache) bank(block uint64) int { return int(block % uint64(c.cfg.Banks)) }

// Access submits a demand access from the layer above (the CPU for an
// L1). It may be called any number of times per cycle; the bounded input
// queue provides backpressure: a false return means "retry next cycle".
// done fires during a later Tick when the access completes.
func (c *Cache) Access(cycle uint64, addr uint64, write bool, done func(cycle uint64)) bool {
	if len(c.input) >= c.maxInput {
		c.st.Rejected++
		return false
	}
	c.input = append(c.input, inputReq{addr: addr, write: write, src: c.cfg.SrcID, at: cycle, done: done})
	return true
}

// Request implements Lower, accepting block requests from an upper cache.
// Demand fetches (done != nil) join the input queue with a one-cycle
// interconnect hop. Writebacks (done == nil) update the block if present
// or are forwarded down, off the demand path.
func (c *Cache) Request(cycle uint64, src int, blockAddr uint64, write bool, done func(cycle uint64)) bool {
	if done == nil {
		c.acceptWriteback(blockAddr)
		return true
	}
	if len(c.input) >= c.maxInput {
		c.st.Rejected++
		return false
	}
	addr := blockAddr << c.blockBits
	c.input = append(c.input, inputReq{addr: addr, write: write, src: src, at: cycle + 1, done: done})
	return true
}

// acceptWriteback absorbs a dirty block from above: update in place on
// presence, otherwise pass it down (non-inclusive hierarchy).
func (c *Cache) acceptWriteback(blockAddr uint64) {
	if l := c.find(blockAddr); l != nil {
		l.tag |= dirtyBit
		return
	}
	c.wbQ = append(c.wbQ, blockAddr)
}

// Tick advances the cache one cycle. Call upper layers before lower ones.
func (c *Cache) Tick(cycle uint64) {
	c.now = cycle

	// 1. Fills that arrived from below during the previous cycle.
	c.fills, c.fillsNext = c.fillsNext, c.fills[:0]
	for _, m := range c.fills {
		c.install(m)
	}

	// 2. Retry accesses waiting for MSHR capacity. Only an install can
	// let one through — it alone frees an MSHR or a target list, or makes
	// the block present — so a cycle without a fill has nothing to retry.
	if len(c.waiting) > 0 && len(c.fills) > 0 {
		c.retryWaiting()
	}

	// 3. Hit-pipeline completions.
	c.completeResolved()

	// 4. Begin new accesses, subject to ports and bank conflicts.
	c.startAccesses()

	// 5. Push allocated-but-unissued MSHR fetches and writebacks down.
	c.issueDown()

	// 6. Classify the cycle.
	c.an.Tick()

	if c.ob != nil {
		c.ob.mshrOcc.Observe(float64(len(c.mshrs)))
	}
}

// install writes a filled block into its set and completes all coalesced
// targets.
func (c *Cache) install(m *mshrEntry) {
	v := c.victim(c.fillSet(m.block))
	if v.tag&validBit != 0 {
		c.st.Evictions++
		if v.tag&dirtyBit != 0 {
			c.st.Writebacks++
			c.wbQ = append(c.wbQ, v.block())
		} else if c.cleanLower != nil {
			c.cleanLower.EvictClean(c.cfg.SrcID, v.block())
		}
	}
	*v = line{tag: tagWord(m.block, m.write), used: c.now}
	for _, t := range m.targets {
		c.an.Done(t.rec, c.now)
		c.st.Misses++
		c.tr.Emit(c.cfg.Name, "miss", t.src, t.start, c.now, m.block<<c.blockBits)
		if t.done != nil {
			t.done(c.now)
		}
	}
	c.freeMSHR(m)
}

// findMSHR returns the outstanding entry for block, or nil.
func (c *Cache) findMSHR(block uint64) *mshrEntry {
	for _, m := range c.mshrs {
		if m.block == block {
			return m
		}
	}
	return nil
}

// freeMSHR retires m once its fill has fired and every target
// completed, and recycles the entry.
func (c *Cache) freeMSHR(m *mshrEntry) {
	last := len(c.mshrs) - 1
	for i, e := range c.mshrs {
		if e == m {
			c.mshrs[i] = c.mshrs[last]
			break
		}
	}
	c.mshrs = c.mshrs[:last]
	c.mshrFree = append(c.mshrFree, m)
}

// victim picks the way to replace in set.
func (c *Cache) victim(set []line) *line {
	for i := range set {
		if set[i].tag&validBit == 0 {
			return &set[i]
		}
	}
	switch c.cfg.Repl {
	case RandomRepl:
		return &set[c.rng.Intn(len(set))]
	default: // LRU and FIFO both evict the smallest stamp; they differ in
		// whether lookups touch the stamp.
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[best].used {
				best = i
			}
		}
		return &set[best]
	}
}

// lookup probes the tag array; on a hit it applies the policy's touch and
// returns true.
func (c *Cache) lookup(block uint64, write bool) bool {
	l := c.find(block)
	if l == nil {
		return false
	}
	if c.cfg.Repl == LRU {
		l.used = c.now
	}
	if write {
		l.tag |= dirtyBit
	}
	return true
}

// completeResolved retires the pipeline entries whose hit operation
// resolves this cycle: the due prefix of the FIFO.
func (c *Cache) completeResolved() {
	for c.pipeHead < len(c.pipe) && c.pipe[c.pipeHead].ready == c.now {
		f := &c.pipe[c.pipeHead]
		c.pipeHead++
		blk := c.block(f.addr)
		if c.lookup(blk, f.write) {
			c.st.Hits++
			c.an.Done(f.rec, c.now)
			c.tr.Emit(c.cfg.Name, "hit", f.src, f.start, c.now, f.addr)
			if f.done != nil {
				f.done(c.now)
			}
			continue
		}
		c.an.ToMiss(f.rec, c.now)
		if !c.attachMiss(*f) {
			c.st.MSHRWaits++
			c.waiting = append(c.waiting, *f)
		}
	}
	if c.pipeHead == len(c.pipe) {
		c.pipe, c.pipeHead = c.pipe[:0], 0
	}
}

// newMSHR claims a pooled entry (or builds one, with its permanent fill
// closure) and resets it for the given block.
func (c *Cache) newMSHR(block uint64) *mshrEntry {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		m.block = block
		m.issued, m.write = false, false
		m.targets = m.targets[:0]
		return m
	}
	m := &mshrEntry{block: block}
	m.fill = func(uint64) { c.fillsNext = append(c.fillsNext, m) }
	return m
}

// attachMiss coalesces f under an existing MSHR or allocates a new one.
// It returns false when no MSHR capacity is available.
func (c *Cache) attachMiss(f inflight) bool {
	blk := c.block(f.addr)
	if m := c.findMSHR(blk); m != nil {
		if !c.cfg.Coalesce || len(m.targets) >= c.maxTargets {
			return false
		}
		c.st.Coalesced++
		m.targets = append(m.targets, target{write: f.write, src: f.src, start: f.start, done: f.done, rec: f.rec})
		m.write = m.write || f.write
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	m := c.newMSHR(blk)
	m.write = f.write
	m.targets = append(m.targets, target{write: f.write, src: f.src, start: f.start, done: f.done, rec: f.rec})
	c.mshrs = append(c.mshrs, m)
	c.issueQ = append(c.issueQ, m)
	c.st.PrimaryMisses++
	return true
}

// retryWaiting re-attempts MSHR attachment for accesses parked after a
// full-MSHR miss. If the block arrived meanwhile, the access completes
// directly.
func (c *Cache) retryWaiting() {
	keep := c.waiting[:0]
	for _, f := range c.waiting {
		blk := c.block(f.addr)
		if c.lookup(blk, f.write) {
			// Filled while waiting; completes as a (short) miss.
			c.st.Misses++
			c.an.Done(f.rec, c.now)
			c.tr.Emit(c.cfg.Name, "miss", f.src, f.start, c.now, f.addr)
			if f.done != nil {
				f.done(c.now)
			}
			continue
		}
		if !c.attachMiss(f) {
			keep = append(keep, f)
		}
	}
	c.waiting = keep
}

// startAccesses moves eligible input-queue requests into the hit pipeline,
// honouring the port count and per-bank single-issue constraint.
func (c *Cache) startAccesses() {
	if len(c.input) == 0 {
		return
	}
	started := 0
	var bankBusy uint64 // bitmask for up to 64 banks; wider configs wrap
	w, i := 0, 0
	for ; i < len(c.input) && started < c.cfg.Ports; i++ {
		req := &c.input[i]
		b := uint(c.bank(c.block(req.addr))) % 64
		if req.at > c.now || bankBusy&(1<<b) != 0 {
			if w != i {
				c.input[w] = *req
			}
			w++
			continue
		}
		bankBusy |= 1 << b
		started++
		c.st.Accesses++
		rec := c.an.Start(c.now)
		if c.pipeHead > 0 && len(c.pipe) == cap(c.pipe) {
			// Reclaim the popped prefix rather than grow.
			c.pipe = c.pipe[:copy(c.pipe, c.pipe[c.pipeHead:])]
			c.pipeHead = 0
		}
		c.pipe = append(c.pipe, inflight{
			addr:  req.addr,
			write: req.write,
			src:   req.src,
			start: c.now,
			ready: c.now + uint64(c.cfg.HitLatency),
			done:  req.done,
			rec:   rec,
		})
	}
	// Every port is taken (or the queue is exhausted): the rest waits.
	w += copy(c.input[w:], c.input[i:])
	c.input = c.input[:w]
}

// issueDown pushes pending block fetches, then writebacks, to the lower
// layer until it refuses.
func (c *Cache) issueDown() {
	if len(c.issueQ) == 0 && len(c.wbQ) == 0 {
		return
	}
	if c.lower == nil {
		panic(fmt.Sprintf("cache %s: miss traffic with no lower layer", c.cfg.Name))
	}
	keepIssue := c.issueQ[:0]
	for i, m := range c.issueQ {
		if m.issued { // already sent (defensive; entries leave the queue on send)
			continue
		}
		if !c.lower.Request(c.now, c.cfg.SrcID, m.block, m.write, m.fill) {
			keepIssue = append(keepIssue, c.issueQ[i:]...)
			break
		}
		m.issued = true
	}
	c.issueQ = keepIssue

	keepWB := c.wbQ[:0]
	for i, blk := range c.wbQ {
		if !c.lower.Request(c.now, c.cfg.SrcID, blk, true, nil) {
			keepWB = append(keepWB, c.wbQ[i:]...)
			break
		}
	}
	c.wbQ = keepWB
}

// Invalidate removes the block holding blockAddr if present, returning
// whether a copy existed and whether it was dirty (the caller — a
// coherence directory — is responsible for collecting the dirty data as
// a writeback). In-flight accesses to the block are unaffected: they
// complete with the timing already committed, matching the usual
// race-window abstraction of block-granularity protocols.
func (c *Cache) Invalidate(blockAddr uint64) (present, dirty bool) {
	l := c.find(blockAddr)
	if l == nil {
		return false, false
	}
	dirty = l.tag&dirtyBit != 0
	*l = line{}
	c.st.Invalidations++
	return true, dirty
}

// Contains reports whether the block holding addr is present (test hook;
// does not touch replacement state).
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.block(addr)) != nil
}
