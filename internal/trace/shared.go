package trace

import "lpm/internal/stats"

// WithSharedRegion wraps a generator so that a fraction of its memory
// accesses target a region common to all wrapped co-runners — genuinely
// shared data, the traffic a coherence protocol exists for. Accesses
// outside the shared fraction keep the underlying generator's private
// addresses (callers typically compose with WithOffset for those).
//
// base/size define the shared range; frac is the probability a memory
// access is redirected into it; seed makes the redirection reproducible.
func WithSharedRegion(g Generator, base, size uint64, frac float64, seed uint64) Generator {
	if size == 0 || frac <= 0 {
		return g
	}
	s := &sharedGen{g: g, base: base, size: size, shared: stats.NewBoolSampler(frac), seed: seed}
	s.rng.Reseed(seed ^ 0x5a4ed)
	return s
}

type sharedGen struct {
	g          Generator
	base, size uint64
	shared     stats.BoolSampler // Bool(frac)
	seed       uint64
	rng        stats.RNG
}

// Name implements Generator.
func (s *sharedGen) Name() string { return s.g.Name() }

// Reset implements Generator.
func (s *sharedGen) Reset() {
	s.g.Reset()
	s.rng.Reseed(s.seed ^ 0x5a4ed)
}

// Next implements Generator.
func (s *sharedGen) Next() Instr {
	in := s.g.Next()
	if in.Kind.IsMem() && s.shared.Sample(&s.rng) {
		in.Addr = s.base + s.rng.Uint64n(s.size)&^0x7
	}
	return in
}
