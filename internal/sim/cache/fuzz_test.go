package cache

import (
	"testing"
)

// fuzzLower is a fixed-latency stub backing store for fuzzed caches.
type fuzzLower struct {
	pend []struct {
		done func(uint64)
		at   uint64
	}
}

func (f *fuzzLower) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	if done != nil {
		f.pend = append(f.pend, struct {
			done func(uint64)
			at   uint64
		}{done, cycle + 10})
	}
	return true
}

func (f *fuzzLower) Tick(cycle uint64) {
	keep := f.pend[:0]
	for _, p := range f.pend {
		if p.at <= cycle {
			p.done(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	f.pend = keep
}

// FuzzCacheConfigValidate fuzzes cache geometry validation: Validate
// must reject every bad geometry before New (which panics on invalid
// configs) can see it, and configs that pass must build and survive a
// bounded burst of accesses without panicking or losing completions.
func FuzzCacheConfigValidate(f *testing.F) {
	// Realistic geometries.
	f.Add("L1", uint64(32*1024), uint64(64), 8, 3, 2, 4, 8, 8, 16, true, uint8(0))
	f.Add("L2", uint64(4*1024*1024), uint64(64), 16, 20, 4, 8, 32, 8, 24, true, uint8(1))
	// Degenerate and adversarial geometries.
	f.Add("", uint64(0), uint64(0), 0, 0, 0, 0, 0, -1, -1, false, uint8(3))
	f.Add("x", uint64(1), uint64(3), 1, 1, 1, 1, 1, 0, 0, false, uint8(2))
	f.Add("tiny", uint64(64), uint64(64), 1, 1, 1, 1, 1, 1, 1, true, uint8(0))
	f.Add("big", uint64(1<<62), uint64(1<<32), 2, 1, 1, 1, 1, 0, 0, true, uint8(0))
	f.Add("b2", uint64(64), uint64(2), 2, 1, 1, 1, 1, 0, 0, true, uint8(2))  // rejected: the tag word needs BlockSize >= 4
	f.Add("b4", uint64(84), uint64(4), 3, 1, 1, 1, 1, 0, 0, false, uint8(1)) // 7 sets of 3 ways

	f.Fuzz(func(t *testing.T, name string, size, blockSize uint64,
		assoc, hitLat, ports, banks, mshrs, mshrTargets, inputQueue int,
		coalesce bool, repl uint8) {

		cfg := Config{
			Name: name, Size: size, BlockSize: blockSize, Assoc: assoc,
			HitLatency: hitLat, Ports: ports, Banks: banks, MSHRs: mshrs,
			MSHRTargets: mshrTargets, InputQueue: inputQueue,
			Coalesce: coalesce, Repl: ReplPolicy(repl % 3),
		}
		if err := cfg.Validate(); err != nil {
			return // rejected: exactly what Validate is for
		}
		// Validate accepted the geometry; derived quantities must be sane.
		if cfg.Sets() == 0 {
			t.Fatalf("validated config has zero sets: %+v", cfg)
		}
		// Cap resources so accepted-but-huge geometries can't OOM the
		// fuzzer; the interesting behaviour is the small-geometry
		// edge cases anyway.
		if cfg.Sets() > 1<<14 || cfg.Assoc > 64 || cfg.MSHRs > 256 ||
			cfg.Ports > 64 || cfg.Banks > 256 ||
			cfg.HitLatency > 1024 || cfg.MSHRTargets > 256 || cfg.InputQueue > 1024 {
			return
		}

		// New must not panic on a validated config, and a bounded access
		// burst must complete every accepted request.
		c := New(cfg)
		low := &fuzzLower{}
		c.SetLower(low)
		accepted, completed := 0, 0
		var cycle uint64
		for i := 0; i < 64; i++ {
			cycle++
			addr := uint64(i) * (blockSize/2 + 1)
			if c.Access(cycle, addr, i%3 == 0, func(uint64) { completed++ }) {
				accepted++
			}
			c.Tick(cycle)
			low.Tick(cycle)
		}
		for drained := 0; c.Busy() && drained < 100000; drained++ {
			cycle++
			c.Tick(cycle)
			low.Tick(cycle)
		}
		if c.Busy() {
			t.Fatalf("cache failed to drain: %+v", cfg)
		}
		if completed != accepted {
			t.Fatalf("completed %d of %d accepted accesses: %+v", completed, accepted, cfg)
		}

		// The tag word must hold any block of the 64-bit address space:
		// a block filled through the functional path is present, and its
		// partners in the top address bits, unless filled too, are not (a
		// tag that dropped those bits would alias them).
		if cfg.Sets()*uint64(cfg.Assoc) > 4096 {
			return
		}
		w := New(cfg)
		filled := map[uint64]bool{}
		x := size ^ blockSize<<32 ^ uint64(assoc)<<48
		for i := uint64(0); i < 256; i++ {
			x += 0x9e3779b97f4a7c15 // splitmix64 step
			addr := x ^ x>>31
			if i < 4 {
				addr = [...]uint64{^uint64(0), 1 << 63, 1<<62 - 1, 1 << 62}[i]
			}
			w.WarmAccess(i, addr, i%3 == 0)
			filled[addr/blockSize] = true
			if !w.Contains(addr) {
				t.Fatalf("block of %#x absent right after its fill: %+v", addr, cfg)
			}
			for _, alias := range [...]uint64{addr ^ 1<<63, addr ^ 1<<62, addr ^ 3<<62} {
				if !filled[alias/blockSize] && w.Contains(alias) {
					t.Fatalf("%#x never filled but present after filling %#x: %+v", alias, addr, cfg)
				}
			}
		}
	})
}
