package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refCache is the cache's miss path as it stood while every cycle
// re-scanned it: the hit pipeline is walked and compacted whole, the MSHR
// file is a map, and parked misses are retried every cycle. Those methods are kept verbatim as the oracle for
// TestCacheMatchesScanReference; everything the rewrite left alone (tag
// array, replacement, input queue, downstream issue) is the embedded
// Cache's, whose own pipe and mshrs fields stay unused here.
type refCache struct {
	*Cache
	pipe  []inflight
	mshrs map[uint64]*mshrEntry
}

func newRefCache(cfg Config) *refCache {
	return &refCache{Cache: New(cfg), mshrs: make(map[uint64]*mshrEntry)}
}

func (c *refCache) Tick(cycle uint64) {
	c.now = cycle
	c.fills, c.fillsNext = c.fillsNext, c.fills[:0]
	for _, m := range c.fills {
		c.install(m)
	}
	if len(c.waiting) > 0 {
		c.retryWaiting()
	}
	c.completeResolved()
	c.startAccesses()
	c.issueDown()
	c.an.Tick()
}

func (c *refCache) install(m *mshrEntry) {
	v := c.victim(c.fillSet(m.block))
	if v.tag&validBit != 0 {
		c.st.Evictions++
		if v.tag&dirtyBit != 0 {
			c.st.Writebacks++
			c.wbQ = append(c.wbQ, v.block())
		}
	}
	*v = line{tag: tagWord(m.block, m.write), used: c.now}
	for _, t := range m.targets {
		c.an.Done(t.rec, c.now)
		c.st.Misses++
		if t.done != nil {
			t.done(c.now)
		}
	}
	delete(c.mshrs, m.block)
	c.mshrFree = append(c.mshrFree, m)
}

func (c *refCache) completeResolved() {
	w := 0
	for i := range c.pipe {
		f := &c.pipe[i]
		if f.ready != c.now {
			if w != i {
				c.pipe[w] = *f
			}
			w++
			continue
		}
		blk := c.block(f.addr)
		if c.lookup(blk, f.write) {
			c.st.Hits++
			c.an.Done(f.rec, c.now)
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
	c.pipe = c.pipe[:w]
}

func (c *refCache) attachMiss(f inflight) bool {
	blk := c.block(f.addr)
	if m, ok := c.mshrs[blk]; ok {
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
	c.mshrs[blk] = m
	c.issueQ = append(c.issueQ, m)
	c.st.PrimaryMisses++
	return true
}

func (c *refCache) retryWaiting() {
	keep := c.waiting[:0]
	for _, f := range c.waiting {
		blk := c.block(f.addr)
		if c.lookup(blk, f.write) {
			c.st.Misses++
			c.an.Done(f.rec, c.now)
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

func (c *refCache) startAccesses() {
	if len(c.input) == 0 {
		return
	}
	started := 0
	var bankBusy uint64
	w := 0
	for i := range c.input {
		req := &c.input[i]
		if started >= c.cfg.Ports || req.at > c.now {
			if w != i {
				c.input[w] = *req
			}
			w++
			continue
		}
		b := uint(c.bank(c.block(req.addr))) % 64
		if bankBusy&(1<<b) != 0 {
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
	c.input = c.input[:w]
}

func (c *refCache) nextEvent() uint64 {
	ev := ^uint64(0)
	for i := range c.pipe {
		if c.pipe[i].ready < ev {
			ev = c.pipe[i].ready
		}
	}
	return ev
}

func (c *refCache) busy() bool {
	return len(c.input) > 0 || len(c.pipe) > 0 || len(c.mshrs) > 0 ||
		len(c.waiting) > 0 || len(c.issueQ) > 0 || len(c.wbQ) > 0 ||
		len(c.fills) > 0 || len(c.fillsNext) > 0
}

// refLower is a seeded lower layer that refuses at random and completes
// fetches after a random latency. It logs what it accepted, so two
// caches driven alike can be compared on what they sent down and when.
type refLower struct {
	rng  *rand.Rand
	pend []refPend
	log  []string
}

type refPend struct {
	done func(uint64)
	at   uint64
}

func (l *refLower) Request(cycle uint64, src int, block uint64, write bool, done func(uint64)) bool {
	if l.rng.Intn(4) == 0 {
		return false
	}
	l.log = append(l.log, fmt.Sprintf("%d: down src=%d block=%d write=%v fetch=%v", cycle, src, block, write, done != nil))
	if done != nil {
		l.pend = append(l.pend, refPend{done, cycle + 4 + uint64(l.rng.Intn(30))})
	}
	return true
}

func (l *refLower) Tick(cycle uint64) {
	keep := l.pend[:0]
	for _, p := range l.pend {
		if p.at <= cycle {
			p.done(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	l.pend = keep
}

// refSide is one cache under comparison with its lower layer and the log
// of every completion it delivered.
type refSide struct {
	tick    func(uint64)
	access  func(cycle, addr uint64, write bool, done func(uint64)) bool
	request func(cycle uint64, src int, block uint64, write bool, done func(uint64)) bool
	inval   func(block uint64) (bool, bool)
	lower   *refLower
	log     []string
}

// TestCacheMatchesScanReference drives the cache and the scan-based
// reference with the same seeded random streams — demand accesses,
// fetches and writebacks from several requestors, coherence
// invalidations, a lower layer that refuses and reorders — and requires
// the same (cycle, access) completion sequence, the same traffic sent
// down, the same Stats and analyzer counters every cycle, a NextEvent
// equal to the reference pipeline's minimum, and a sorted pipeline.
func TestCacheMatchesScanReference(t *testing.T) {
	base := Config{
		Name: "ref", Size: 2 << 10, BlockSize: 64, Assoc: 4,
		HitLatency: 3, Ports: 2, Banks: 4, MSHRs: 3, Coalesce: true,
		InputQueue: 6,
	}
	variants := map[string]func(*Config){
		"base":        func(*Config) {},
		"no-coalesce": func(c *Config) { c.Coalesce = false },
		"one-target":  func(c *Config) { c.MSHRTargets = 1 },
		"one-mshr":    func(c *Config) { c.MSHRs = 1; c.HitLatency = 1; c.Ports = 4 },
		"deep-pipe":   func(c *Config) { c.HitLatency = 12; c.Ports = 3; c.InputQueue = 16 },
		"random":      func(c *Config) { c.Repl = RandomRepl; c.Seed = 9 },
	}
	for name, mutate := range variants {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 6; seed++ {
				cfg := base
				mutate(&cfg)
				compareWithReference(t, cfg, seed)
			}
		})
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	got, ref := New(cfg), newRefCache(cfg)
	sides := [2]*refSide{
		{tick: got.Tick, access: got.Access, request: got.Request, inval: got.Invalidate},
		{tick: ref.Tick, access: ref.Access, request: ref.Request, inval: ref.Invalidate},
	}
	for i, s := range sides {
		s.lower = &refLower{rng: rand.New(rand.NewSource(seed * 77))}
		if i == 0 {
			got.SetLower(s.lower)
		} else {
			ref.SetLower(s.lower)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	id := 0
	var waited bool
	for cycle := uint64(1); cycle <= 9000; cycle++ {
		// Bursts against a 64-block footprint (twice the cache), with a
		// hot block so misses pile onto one MSHR; idle stretches let the
		// pipeline and the MSHR file drain, as does the tail of the run.
		if (cycle/500)%4 != 3 && cycle < 5500 {
			for k := rng.Intn(4); k > 0; k-- {
				block := uint64(rng.Intn(64))
				if rng.Intn(3) == 0 {
					block = 7
				}
				write := rng.Intn(4) == 0
				src := rng.Intn(3)
				kind := rng.Intn(10)
				addr := block<<6 | uint64(rng.Intn(64))
				id++
				var accepted [2]bool
				for i, s := range sides {
					s, tag := s, id
					done := func(cy uint64) { s.log = append(s.log, fmt.Sprintf("%d: done #%d", cy, tag)) }
					switch {
					case kind == 0:
						accepted[i] = s.request(cycle, src, block, true, nil) // writeback from above
					case kind < 5:
						accepted[i] = s.request(cycle, src, block, write, done)
					default:
						accepted[i] = s.access(cycle, addr, write, done)
					}
				}
				if accepted[0] != accepted[1] {
					t.Fatalf("seed %d cycle %d: access #%d accepted %v, reference %v", seed, cycle, id, accepted[0], accepted[1])
				}
			}
			if rng.Intn(40) == 0 {
				block := uint64(rng.Intn(64))
				p0, d0 := sides[0].inval(block)
				p1, d1 := sides[1].inval(block)
				if p0 != p1 || d0 != d1 {
					t.Fatalf("seed %d cycle %d: Invalidate(%d) = %v,%v, reference %v,%v", seed, cycle, block, p0, d0, p1, d1)
				}
			}
		}
		for _, s := range sides {
			s.tick(cycle)
		}
		for _, s := range sides {
			s.lower.Tick(cycle)
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("seed %d cycle %d: Stats diverged\n got %+v\nwant %+v", seed, cycle, got.Stats(), ref.Stats())
		}
		if a, b := got.Analyzer().Snapshot(), ref.Analyzer().Snapshot(); a != b {
			t.Fatalf("seed %d cycle %d: analyzer diverged\n got %+v\nwant %+v", seed, cycle, a, b)
		}
		if got.NextEvent() != ref.nextEvent() {
			t.Fatalf("seed %d cycle %d: NextEvent = %d, reference pipeline minimum %d", seed, cycle, got.NextEvent(), ref.nextEvent())
		}
		if got.Busy() != ref.busy() || got.OutstandingMisses() != len(ref.mshrs) {
			t.Fatalf("seed %d cycle %d: Busy/OutstandingMisses = %v/%d, reference %v/%d",
				seed, cycle, got.Busy(), got.OutstandingMisses(), ref.busy(), len(ref.mshrs))
		}
		for i := got.pipeHead + 1; i < len(got.pipe); i++ {
			if got.pipe[i].ready < got.pipe[i-1].ready {
				t.Fatalf("seed %d cycle %d: hit pipeline out of order at %d", seed, cycle, i)
			}
		}
		if cycle%1500 == 0 {
			got.ResetCounters()
			ref.ResetCounters()
		}
		waited = waited || got.Stats().MSHRWaits > 0
	}
	if !reflect.DeepEqual(sides[0].log, sides[1].log) {
		t.Fatalf("seed %d: completion sequences differ (%d vs %d events)%s", seed, len(sides[0].log), len(sides[1].log), firstDiff(sides[0].log, sides[1].log))
	}
	if !reflect.DeepEqual(sides[0].lower.log, sides[1].lower.log) {
		t.Fatalf("seed %d: downstream traffic differs%s", seed, firstDiff(sides[0].lower.log, sides[1].lower.log))
	}
	if got.Busy() {
		t.Fatalf("seed %d: cache still busy after the stream drained", seed)
	}
	if !waited || len(sides[0].log) < 1000 {
		t.Fatalf("seed %d: weak stream: parked=%v completions=%d", seed, waited, len(sides[0].log))
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("\nfirst difference at %d:\n got %s\nwant %s", i, a[i], b[i])
		}
	}
	return ""
}

// BenchmarkL2PipeTick measures one cycle of the NUCA L2 with its hit
// pipeline full — HitLatency 30 x 8 ports = 240 accesses in flight, eight
// resolving (all hits) and eight starting every cycle.
func BenchmarkL2PipeTick(b *testing.B) {
	cfg := Config{
		Name: "L2", Size: 8 << 20, BlockSize: 64, Assoc: 8,
		HitLatency: 30, Ports: 8, Banks: 16, MSHRs: 64, InputQueue: 128,
		Coalesce: true,
	}
	c := New(cfg)
	low := &refLower{rng: rand.New(rand.NewSource(1))}
	c.SetLower(low)
	var cycle uint64
	step := func() {
		cycle++
		for p := uint64(0); p < 8; p++ {
			c.Request(cycle, 0, p, false, func(uint64) {}) // blocks 0-7: one per bank
		}
		c.Tick(cycle)
		low.Tick(cycle)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if n := len(c.pipe) - c.pipeHead; n != 240 {
		b.Fatalf("pipeline holds %d accesses, want 240", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
