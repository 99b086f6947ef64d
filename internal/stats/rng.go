// Package stats provides the small statistics substrate used throughout the
// LPM reproduction: deterministic pseudo-random number generation, running
// moments, histograms, and the multiprogram throughput/fairness metrics
// (weighted speedup and harmonic weighted speedup) used by the paper's
// case study II.
//
// Everything in this package is allocation-light and deterministic so that
// simulations are exactly reproducible from a seed.
package stats

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a deterministic 64-bit pseudo-random number generator based on
// SplitMix64 seeding an xorshift128+ core. It is not safe for concurrent
// use; give each simulated component its own RNG.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s0, s1 uint64
}

// SplitMix64 advances the seed mixer *x and returns the next mixed
// value. It is the repo's one splitmix64 step: RNG seeding, fleet retry
// jitter and fault-injection plans all draw from it.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose stream is fully determined by seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the stream determined by seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1 // xorshift state must be non-zero
	}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	x := r.s0
	y := r.s1
	r.s0 = y
	x ^= x << 23
	r.s1 = x ^ y ^ (x >> 17) ^ (y >> 26)
	return r.s1 + y
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics if
// n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// p is clamped to (0, 1]; p >= 1 always returns 0.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	u := r.Float64()
	// Inverse transform sampling. 1-u avoids log(0).
	return int(math.Log(1-u) / math.Log(1-p))
}

// Zipf returns a sample in [0, n) following an approximate Zipf distribution
// with exponent s > 0 using inverse transform over the harmonic CDF. It is
// used to draw hot working-set blocks with realistic skew.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Approximate inverse CDF for Zipf via the continuous bounded Pareto
	// distribution; adequate for workload shaping (not for statistics).
	// The s→1 limit divides by 1-s below, so nudge a whole neighbourhood
	// of 1 (not just the exact value) off the singularity.
	if math.Abs(s-1) < 1e-7 {
		s = 1.0000001
	}
	u := r.Float64()
	oneMinusS := 1 - s
	h := (math.Pow(float64(n), oneMinusS)-1)*u + 1
	x := math.Pow(h, 1/oneMinusS)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// draws is the number of distinct values Float64 can return: it is
// m/2^53 with m = Uint64()>>11, so every sampler below is a function of
// the integer m and can be tabulated over it exactly.
const draws = 1 << 53

// BoolSampler is Bool(p) for a fixed p as one integer compare:
// Float64() < p is m < p·2^53 (the scaling is exact), i.e.
// m < ceil(p·2^53). Like Bool, p <= 0 and p >= 1 consume no draw.
type BoolSampler struct {
	thr  uint64
	draw bool // false: the answer is thr != 0 and no draw is consumed
}

// NewBoolSampler precomputes a sampler equivalent to Bool(p).
func NewBoolSampler(p float64) BoolSampler {
	switch {
	case p <= 0:
		return BoolSampler{}
	case p >= 1:
		return BoolSampler{thr: 1}
	case p != p: // NaN: Bool draws and every compare is false
		return BoolSampler{draw: true}
	}
	return BoolSampler{thr: uint64(math.Ceil(p * draws)), draw: true}
}

// Sample draws the next Bernoulli sample from r.
func (b BoolSampler) Sample(r *RNG) bool {
	if !b.draw {
		return b.thr != 0
	}
	return r.Uint64()>>11 < b.thr
}

// stepTable tabulates a non-decreasing integer function f of the draw m
// with f(0) = 0. thr[k] is the least m with f(m) > k, found by
// evaluating f itself (leastAbove); the last entry is the sentinel
// draws, which no m reaches. guide[m>>shift] is f at the first m of the
// bucket, leaving lookup a step or two. A step lookup of len(thr)-1
// means "at least that": the caller evaluates f itself there.
type stepTable struct {
	thr   []uint64
	guide []uint32
	shift uint
}

// newStepTable tabulates f's first max steps (fewer when f has fewer).
// guess(k) estimates thr[k]; it only seeds the search. f's floating
// point need not be monotone: where f steps back down beside a threshold
// the table would disagree with it, so each threshold's neighbours are
// checked against f, and a table that disagrees anywhere is cut to no
// steps at all, leaving every draw to f.
func newStepTable(f func(m uint64) int, guess func(k int) float64, max int) stepTable {
	t := stepTable{thr: make([]uint64, 0, max+1)}
	for k := 0; k < max; k++ {
		at := leastAbove(f, k, guess(k))
		if at == draws {
			break
		}
		t.thr = append(t.thr, at)
	}
	t.thr = append(t.thr, draws)
	buckets := 64
	for buckets < 4*len(t.thr) {
		buckets *= 2
	}
	t.shift = uint(53 - bits.TrailingZeros(uint(buckets)))
	t.guide = make([]uint32, buckets)
	k := 0
	for b := range t.guide {
		for t.thr[k] <= uint64(b)<<t.shift {
			k++
		}
		t.guide[b] = uint32(k)
	}
	last := len(t.thr) - 1
	for _, at := range t.thr[:last] {
		for m := at - 1; m <= at+1 && m < draws; m++ {
			if got := t.steps(m); got < last && f(m) != got {
				return newStepTable(f, guess, 0)
			}
		}
	}
	return t
}

// leastAbove returns the least m with f(m) > k, or draws when no draw
// gets there: it gallops outward from the estimate to bracket the step,
// then bisects — two or three evaluations of f when the estimate is
// within a few m, against 53 for a blind bisection.
func leastAbove(f func(m uint64) int, k int, guess float64) uint64 {
	at := uint64(0)
	if guess >= draws {
		at = draws - 1
	} else if guess > 0 {
		at = uint64(guess)
	}
	lo, hi := uint64(0), uint64(draws) // f(lo) <= k; f(hi) > k, taking f(draws) = +Inf
	if f(at) > k {
		hi = at
		for step := uint64(1); step < hi; step *= 2 {
			if f(hi-step) <= k {
				lo = hi - step
				break
			}
			hi -= step
		}
	} else {
		lo = at
		for step := uint64(1); lo+step < draws; step *= 2 {
			if f(lo+step) > k {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; f(mid) > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// steps returns f(m), or len(thr)-1 when f(m) is at least that (a table
// that newStepTable cut short at max).
func (t *stepTable) steps(m uint64) int {
	k := int(t.guide[m>>t.shift])
	for m >= t.thr[k] {
		k++
	}
	return k
}

// samplerMemo shares table samplers between generators: a report builds
// hundreds of generators over a dozen distinct parameters, a table costs
// kilobytes, and finding and checking one Zipf step costs five or six
// math.Pow (~0.45 ms for a 60 KB hot region). A sampler is immutable
// once built, so sharing one cannot change any stream; the entry bound
// keeps arbitrary parameters from growing the memo.
type samplerMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*V
}

const samplerMemoMax = 64

func (c *samplerMemo[K, V]) get(key K, build func() *V) *V {
	c.mu.Lock()
	v := c.m[key]
	c.mu.Unlock()
	if v != nil {
		return v
	}
	v = build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[K]*V)
	}
	if len(c.m) < samplerMemoMax {
		c.m[key] = v
	}
	return v
}

var geomSamplers samplerMemo[float64, GeomSampler]

// geomTableMax bounds a GeomSampler's table, and with it the table's
// construction time; samples beyond it (one draw in 13,000 at the
// largest built-in mean, DepDist 14) take the reference expression.
const geomTableMax = 128

// GeomSampler draws geometric samples for a fixed success probability
// from a table over the draw m instead of RNG.Geometric's two math.Log
// calls. Its stream is bit-identical to calling Geometric(p) with the
// same p: the same draws are consumed (none when p >= 1), and the table
// is built from the reference expression itself (ref).
type GeomSampler struct {
	one  bool    // p >= 1: the sample is always 0 and consumes no draw
	logQ float64 // math.Log(1-p) after the (0,1] clamp
	tab  stepTable
}

// NewGeomSampler precomputes a sampler equivalent to Geometric(p).
func NewGeomSampler(p float64) *GeomSampler {
	if p >= 1 {
		return &GeomSampler{one: true}
	}
	if p <= 0 {
		p = 1e-9
	}
	return geomSamplers.get(p, func() *GeomSampler {
		s := &GeomSampler{logQ: math.Log(1 - p)}
		// f(m) > k once 1-u <= q^(k+1).
		s.tab = newStepTable(s.ref, func(k int) float64 {
			return -math.Expm1(float64(k+1)*s.logQ) * draws
		}, geomTableMax)
		return s
	})
}

// ref is Geometric's expression on the draw m.
func (s *GeomSampler) ref(m uint64) int {
	u := float64(m) / draws
	// Inverse transform sampling. 1-u avoids log(0).
	return int(math.Log(1-u) / s.logQ)
}

// Sample draws the next geometric sample from r.
func (s *GeomSampler) Sample(r *RNG) int {
	if s.one {
		return 0
	}
	m := r.Uint64() >> 11
	if k := s.tab.steps(m); k < len(s.tab.thr)-1 {
		return k
	}
	return s.ref(m)
}

// ZipfSampler draws Zipf samples for a fixed (n, s) from a table over
// the draw m instead of RNG.Zipf's two math.Pow calls. Bit-identical to
// Zipf(n, s): same draws (none when n <= 1), and the table is built
// from the reference expression itself (ref).
type ZipfSampler struct {
	n    int
	span float64 // math.Pow(n, 1-s) - 1
	inv  float64 // 1 / (1 - s)
	tab  stepTable
}

type zipfKey struct {
	n int
	s float64
}

var zipfSamplers samplerMemo[zipfKey, ZipfSampler]

// NewZipfSampler precomputes a sampler equivalent to Zipf(n, s).
func NewZipfSampler(n int, s float64) *ZipfSampler {
	if n <= 1 {
		return &ZipfSampler{n: n}
	}
	if math.Abs(s-1) < 1e-7 {
		s = 1.0000001
	}
	return zipfSamplers.get(zipfKey{n, s}, func() *ZipfSampler {
		oneMinusS := 1 - s
		z := &ZipfSampler{
			n:    n,
			span: math.Pow(float64(n), oneMinusS) - 1,
			inv:  1 / oneMinusS,
		}
		// f(m) > k once x >= k+2, i.e. span*u+1 has reached (k+2)^(1-s).
		z.tab = newStepTable(z.ref, func(k int) float64 {
			return (math.Pow(float64(k+2), oneMinusS) - 1) / z.span * draws
		}, n-1)
		return z
	})
}

// ref is Zipf's expression on the draw m.
func (z *ZipfSampler) ref(m uint64) int {
	u := float64(m) / draws
	x := math.Pow(z.span*u+1, z.inv)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// Sample draws the next Zipf sample from r.
func (z *ZipfSampler) Sample(r *RNG) int {
	if z.n <= 1 {
		return 0
	}
	m := r.Uint64() >> 11
	if k := z.tab.steps(m); k < len(z.tab.thr)-1 {
		return k
	}
	return z.ref(m)
}

// Perm fills dst with a uniformly random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
