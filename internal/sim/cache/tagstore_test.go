package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"lpm/internal/stats"
)

// refTags is the tag store as it stood before packing: a table of sets,
// each a slice of 24-byte ways with separate valid and dirty flags. It is
// the oracle for TestTagStoreMatchesReference, logging its evictions and
// writebacks in the form tagLower logs the packed cache's.
type refTags struct {
	sets [][]refWay
	repl ReplPolicy
	rng  *stats.RNG
	log  []string
}

type refWay struct {
	tag, used    uint64
	valid, dirty bool
}

func newRefTags(cfg Config) *refTags {
	t := &refTags{sets: make([][]refWay, cfg.Sets()), repl: cfg.Repl, rng: stats.NewRNG(cfg.Seed ^ 0xcac4e)}
	for i := range t.sets {
		t.sets[i] = make([]refWay, cfg.Assoc)
	}
	return t
}

func (t *refTags) find(block uint64) *refWay {
	set := t.sets[block%uint64(len(t.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// access is WarmAccess: a hit applies the policy's touch, a miss fetches
// the block and installs it over the first invalid way or the victim.
func (t *refTags) access(stamp, block uint64, write bool) bool {
	if w := t.find(block); w != nil {
		if t.repl == LRU {
			w.used = stamp
		}
		w.dirty = w.dirty || write
		return true
	}
	t.log = append(t.log, fmt.Sprintf("fetch %#x", block))
	// v stops at the first invalid way, else ends on the first oldest.
	set, v := t.sets[block%uint64(len(t.sets))], 0
	for i := 1; i < len(set) && set[v].valid; i++ {
		if !set[i].valid || set[i].used < set[v].used {
			v = i
		}
	}
	if set[v].valid && t.repl == RandomRepl {
		v = t.rng.Intn(len(set))
	}
	if set[v].valid && set[v].dirty {
		t.log = append(t.log, fmt.Sprintf("writeback %#x", set[v].tag))
	} else if set[v].valid {
		t.log = append(t.log, fmt.Sprintf("evict %#x", set[v].tag))
	}
	set[v] = refWay{tag: block, used: stamp, valid: true, dirty: write}
	return false
}

// writeback absorbs a dirty block from above, forwarding it if absent.
func (t *refTags) writeback(block uint64) {
	if w := t.find(block); w != nil {
		w.dirty = true
		return
	}
	t.log = append(t.log, fmt.Sprintf("writeback %#x", block))
}

// tagLower records what a cache sends below it on either tier.
type tagLower struct{ log []string }

func (l *tagLower) Request(_ uint64, _ int, block uint64, write bool, done func(uint64)) bool {
	if done != nil || !write {
		panic("tag-store test: unexpected demand fetch")
	}
	l.log = append(l.log, fmt.Sprintf("writeback %#x", block))
	return true
}

func (l *tagLower) WarmFetch(_ uint64, _ int, block uint64, _ bool) {
	l.log = append(l.log, fmt.Sprintf("fetch %#x", block))
}

func (l *tagLower) WarmWriteback(_ uint64, _ int, block uint64) {
	l.log = append(l.log, fmt.Sprintf("writeback %#x", block))
}

func (l *tagLower) EvictClean(_ int, block uint64) {
	l.log = append(l.log, fmt.Sprintf("evict %#x", block))
}

// TestTagStoreMatchesReference drives the paged, packed tag store and
// the unpacked reference with the same seeded streams — functional
// accesses, writebacks from above on both tiers, coherence
// invalidations — over every replacement policy, one-, three- and
// eight-way sets, and set counts below a page (7), a multiple of it
// (128) and three pages plus five sets (197), with 4-byte blocks spread
// over the whole 64-bit address space. Hits and misses, Invalidate's
// answers and Contains must agree step by step, and the fetch, eviction
// and writeback sequences sent below must be identical.
func TestTagStoreMatchesReference(t *testing.T) {
	for _, repl := range []ReplPolicy{LRU, FIFORepl, RandomRepl} {
		for _, assoc := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%v/%d-way", repl, assoc), func(t *testing.T) {
				for _, sets := range []uint64{7, 2 * pageSets, 3*pageSets + 5} {
					cfg := tagConfig(sets, assoc, repl, 5)
					for seed := int64(1); seed <= 4; seed++ {
						compareTagStores(t, cfg, seed)
					}
				}
			})
		}
	}
}

// tagConfig is a one-port cache of 4-byte blocks with the given
// geometry, the smallest block Config.Validate admits.
func tagConfig(sets uint64, assoc int, repl ReplPolicy, seed uint64) Config {
	return Config{
		Name: "tags", Size: 4 * uint64(assoc) * sets, BlockSize: 4, Assoc: assoc,
		HitLatency: 1, Ports: 1, Banks: 1, MSHRs: 1, Repl: repl, Seed: seed,
	}
}

// tagOp is one step of a tag-store stream: an operation on addr, then
// a Contains probe of probe.
type tagOp struct {
	kind  int // 0 detailed writeback, 1 functional writeback, 2 invalidate, else access
	addr  uint64
	write bool
	probe uint64
}

func compareTagStores(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A footprint of three times the capacity, drawn from the whole
	// address space, pinned to its extremes at the front.
	pool := []uint64{^uint64(0), 1 << 63, 1<<62 - 1, 0}
	for len(pool) < 3*int(cfg.Size/cfg.BlockSize) {
		pool = append(pool, rng.Uint64())
	}
	ops := make([]tagOp, 4000)
	for i := range ops {
		op := &ops[i]
		op.addr = pool[rng.Intn(len(pool))]
		if op.kind = rng.Intn(20); op.kind > 2 {
			op.write = rng.Intn(4) == 0
		}
		op.probe = pool[rng.Intn(len(pool))]
	}
	hits, events := replayTagStores(t, cfg, ops)
	if hits < 200 || events < 1000 {
		t.Fatalf("seed %d: weak stream: %d hits, %d events below", seed, hits, events)
	}
}

// replayTagStores runs ops through a cache and the reference and fails
// on the first disagreement. It returns the hits and the events sent
// below.
func replayTagStores(t *testing.T, cfg Config, ops []tagOp) (hits, events int) {
	t.Helper()
	got, ref, low := New(cfg), newRefTags(cfg), &tagLower{}
	got.SetLower(low)
	for i, op := range ops {
		stamp, block := uint64(i+1), op.addr>>2
		switch op.kind {
		case 0:
			got.Request(stamp, 0, block, true, nil)
			got.Tick(stamp)
			ref.writeback(block)
		case 1:
			got.WarmWriteback(stamp, 0, block)
			ref.writeback(block)
		case 2:
			p0, d0 := got.Invalidate(block)
			var p1, d1 bool
			if w := ref.find(block); w != nil {
				p1, d1 = true, w.dirty
				*w = refWay{}
			}
			if p0 != p1 || d0 != d1 {
				t.Fatalf("%+v step %d: Invalidate(%#x) = %v,%v, reference %v,%v", cfg, stamp, block, p0, d0, p1, d1)
			}
		default:
			h0, h1 := got.WarmAccess(stamp, op.addr, op.write), ref.access(stamp, block, op.write)
			if h0 != h1 {
				t.Fatalf("%+v step %d: access %#x hit=%v, reference %v", cfg, stamp, op.addr, h0, h1)
			}
			if h0 {
				hits++
			}
		}
		if c0, c1 := got.Contains(op.probe), ref.find(op.probe>>2) != nil; c0 != c1 {
			t.Fatalf("%+v step %d: Contains(%#x) = %v, reference %v", cfg, stamp, op.probe, c0, c1)
		}
	}
	if !reflect.DeepEqual(low.log, ref.log) {
		t.Fatalf("%+v: traffic below differs (%d vs %d events)%s", cfg, len(low.log), len(ref.log), firstDiff(low.log, ref.log))
	}
	return hits, len(low.log)
}

// FuzzTagStore replays a fuzzed geometry, policy, seed and stream
// through the paged tag store and the reference: hits, victims and
// writebacks must be identical. Each five stream bytes are one step:
// the operation, then two address bytes and two probe bytes, which the
// seed spreads over the address space.
func FuzzTagStore(f *testing.F) {
	f.Add(uint16(7), uint8(3), uint8(0), uint64(5), []byte("\x03\x00\x01\x00\x01\x83\x00\x02\x00\x01\x02\x00\x01\x00\x02"))
	f.Add(uint16(197), uint8(8), uint8(1), uint64(1<<63|9), []byte("\x05\x01\x00\x01\x00\x00\x01\x00\x02\x00\x01\x02\x00\x03\x00\x05\x01\x00\x01\x00"))
	f.Add(uint16(128), uint8(1), uint8(2), uint64(3), []byte("\x04\x00\x40\x00\x40\x04\x00\xc0\x00\x40\x04\x00\x40\x00\xc0"))
	f.Fuzz(func(t *testing.T, sets uint16, assoc, repl uint8, seed uint64, stream []byte) {
		cfg := tagConfig(1+uint64(sets)%(5*pageSets), 1+int(assoc)%16, ReplPolicy(repl%3), seed)
		spread := func(v uint64) uint64 { return bits.RotateLeft64(v, int(seed%64)) ^ seed }
		var ops []tagOp
		for b := stream; len(b) >= 5 && len(ops) < 4096; b = b[5:] {
			ops = append(ops, tagOp{
				kind:  int(b[0] % 20),
				write: b[0] >= 128,
				addr:  spread(uint64(b[1])<<8 | uint64(b[2])),
				probe: spread(uint64(b[3])<<8 | uint64(b[4])),
			})
		}
		replayTagStores(t, cfg, ops)
	})
}

// TestPagesAllocateOnFirstInstall pins when the tag store takes memory.
// Every probe of a cache with no page allocated — the lookup both tiers'
// hit paths make, Contains, a coherence invalidation, a writeback from
// above — is a miss and allocates nothing. The first install into a
// page allocates exactly that page, a later one into it nothing, and
// the last page of a set count that is not a multiple of the page is
// short.
func TestPagesAllocateOnFirstInstall(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c := New(Config{
		Name: "L2", Size: 8 << 20, BlockSize: 64, Assoc: 8,
		HitLatency: 1, Ports: 1, Banks: 1, MSHRs: 1, Repl: LRU,
	})
	blocks := []uint64{0, 5, pageSets, 12345, 1<<58 - 1}
	if avg := testing.AllocsPerRun(100, func() {
		for _, b := range blocks {
			if c.lookup(b, true) || c.Contains(b<<6) {
				t.Fatalf("block %#x present in a cold cache", b)
			}
			if present, _ := c.Invalidate(b); present {
				t.Fatalf("Invalidate(%#x) found a block in a cold cache", b)
			}
			c.WarmWriteback(1, 0, b)
		}
	}); avg != 0 {
		t.Fatalf("probes of a cold cache allocate %.2f times per run; want 0", avg)
	}
	if n, slots := Pages(c); n != 0 || slots != 256 {
		t.Fatalf("cold cache: %d of %d pages allocated, want 0 of 256", n, slots)
	}

	install := func(stamp, block uint64) (mallocs, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c.WarmAccess(stamp, block<<6, false)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	if mallocs, bytes := install(2, 5); mallocs != 1 || bytes != pageSets*8*16 {
		t.Fatalf("first install: %d allocations, %d bytes; want 1 page of %d bytes", mallocs, bytes, pageSets*8*16)
	}
	if mallocs, _ := install(3, 6); mallocs != 0 {
		t.Fatalf("second install into the page: %d allocations, want 0", mallocs)
	}
	if n, _ := Pages(c); n != 1 || !c.Contains(5<<6) || !c.Contains(6<<6) {
		t.Fatalf("after two installs into one page: %d pages, blocks present %v %v", n, c.Contains(5<<6), c.Contains(6<<6))
	}

	short := New(tagConfig(3*pageSets+5, 3, LRU, 1))
	short.WarmAccess(1, (3*pageSets+4)<<2, true)
	if n, slots := Pages(short); n != 1 || slots != 4 || len(short.pages[3]) != 5*3 {
		t.Fatalf("197 sets: %d of %d pages, last page %d ways; want 1 of 4, 15 ways", n, slots, len(short.pages[3]))
	}
}

// TestLineIs16Bytes pins the packed way: a tag word and a stamp.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(line{}) = %d, want 16", n)
	}
}
