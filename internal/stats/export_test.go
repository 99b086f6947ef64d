package stats

// Test-only access for the external sampler tests (sampler_test.go),
// which import internal/trace for the built-in profiles and so cannot
// live in this package.

// Draws is the number of distinct draws m.
const Draws = draws

// RNGYielding returns a generator whose next draw is m (its next
// Float64 is m/2^53), by inverting one xorshift128+ step from s1 = 0.
// It puts the oracle methods (Bool, Geometric, Zipf) and the samplers on
// a chosen m.
func RNGYielding(m uint64) *RNG {
	o := m<<11 | 1 // Float64 discards the low bits; the 1 keeps the state non-zero
	x := o ^ o>>17 ^ o>>34 ^ o>>51
	return &RNG{s0: x ^ x<<23 ^ x<<46}
}

// Thresholds returns the sampler's step thresholds without the sentinel.
func (s *GeomSampler) Thresholds() []uint64 { return s.tab.real() }

// Thresholds returns the sampler's step thresholds without the sentinel.
func (z *ZipfSampler) Thresholds() []uint64 { return z.tab.real() }

func (t *stepTable) real() []uint64 {
	if len(t.thr) == 0 {
		return nil
	}
	return t.thr[:len(t.thr)-1]
}

// Threshold returns the compare threshold and whether a draw is consumed.
func (b BoolSampler) Threshold() (uint64, bool) { return b.thr, b.draw }
