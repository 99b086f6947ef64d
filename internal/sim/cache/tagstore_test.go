package cache

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestTagStoreMatchesReference drives the packed tag store and the
// unpacked reference with the same seeded streams — functional accesses,
// writebacks from above on both tiers, coherence invalidations — over
// every replacement policy, one-, three- and eight-way sets, a set count
// that is not a power of two, and 4-byte blocks spread over the whole
// 64-bit address space. Hits and misses, Invalidate's answers and
// Contains must agree step by step, and the fetch, eviction and
// writeback sequences sent below must be identical.
func TestTagStoreMatchesReference(t *testing.T) {
	for _, repl := range []ReplPolicy{LRU, FIFORepl, RandomRepl} {
		for _, assoc := range []int{1, 3, 8} {
			cfg := Config{
				Name: "tags", Size: 4 * uint64(assoc) * 7, BlockSize: 4, Assoc: assoc,
				HitLatency: 1, Ports: 1, Banks: 1, MSHRs: 1, Repl: repl, Seed: 5,
			}
			t.Run(fmt.Sprintf("%v/%d-way", repl, assoc), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					compareTagStores(t, cfg, seed)
				}
			})
		}
	}
}

func compareTagStores(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	got, ref, low := New(cfg), newRefTags(cfg), &tagLower{}
	got.SetLower(low)
	rng := rand.New(rand.NewSource(seed))
	// A footprint of three times the capacity, drawn from the whole
	// address space, pinned to its extremes at the front.
	pool := []uint64{^uint64(0), 1 << 63, 1<<62 - 1, 0}
	for len(pool) < 3*int(cfg.Size/cfg.BlockSize) {
		pool = append(pool, rng.Uint64())
	}
	hits := 0
	for stamp := uint64(1); stamp <= 4000; stamp++ {
		addr := pool[rng.Intn(len(pool))]
		block := addr >> 2
		switch k := rng.Intn(20); {
		case k == 0:
			got.Request(stamp, 0, block, true, nil)
			got.Tick(stamp)
			ref.writeback(block)
		case k == 1:
			got.WarmWriteback(stamp, 0, block)
			ref.writeback(block)
		case k == 2:
			p0, d0 := got.Invalidate(block)
			var p1, d1 bool
			if w := ref.find(block); w != nil {
				p1, d1 = true, w.dirty
				*w = refWay{}
			}
			if p0 != p1 || d0 != d1 {
				t.Fatalf("seed %d step %d: Invalidate(%#x) = %v,%v, reference %v,%v", seed, stamp, block, p0, d0, p1, d1)
			}
		default:
			write := rng.Intn(4) == 0
			h0, h1 := got.WarmAccess(stamp, addr, write), ref.access(stamp, block, write)
			if h0 != h1 {
				t.Fatalf("seed %d step %d: access %#x hit=%v, reference %v", seed, stamp, addr, h0, h1)
			}
			if h0 {
				hits++
			}
		}
		probe := pool[rng.Intn(len(pool))]
		if c0, c1 := got.Contains(probe), ref.find(probe>>2) != nil; c0 != c1 {
			t.Fatalf("seed %d step %d: Contains(%#x) = %v, reference %v", seed, stamp, probe, c0, c1)
		}
	}
	if !reflect.DeepEqual(low.log, ref.log) {
		t.Fatalf("seed %d: traffic below differs (%d vs %d events)%s", seed, len(low.log), len(ref.log), firstDiff(low.log, ref.log))
	}
	if hits < 200 || len(low.log) < 1000 {
		t.Fatalf("seed %d: weak stream: %d hits, %d events below", seed, hits, len(low.log))
	}
}

// TestLineIs16Bytes pins the packed way: a tag word and a stamp.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(line{}) = %d, want 16", n)
	}
}
