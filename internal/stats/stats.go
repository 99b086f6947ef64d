package stats

import "math"

// Histogram is a fixed-bucket histogram over [lo, hi) with uniform bucket
// width, plus underflow/overflow buckets. Construct with NewHistogram.
type Histogram struct {
	lo, hi    float64
	width     float64
	buckets   []uint64
	underflow uint64
	overflow  uint64
	total     uint64
	sum       float64
}

// NewHistogram returns a histogram with n uniform buckets over [lo, hi).
// It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(n),
		buckets: make([]uint64, n),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		h.overflow++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard float rounding at the upper edge
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// AddN records n identical observations of x. It is equivalent to
// calling Add(x) n times; the fast-forward bulk-accrual paths use it to
// keep histograms bit-identical to a cycle-stepped run.
func (h *Histogram) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	h.sum += x * float64(n)
	switch {
	case x < h.lo:
		h.underflow += n
	case x >= h.hi:
		h.overflow += n
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard float rounding at the upper edge
			i = len(h.buckets) - 1
		}
		h.buckets[i] += n
	}
}

// Total returns the number of observations, including under/overflow.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantiles3 returns bucket-midpoint approximations of three ascending
// quantiles (each clamped to [0, 1]) in one pass over the buckets: the
// bucket holding the floor(q·Total())-th smallest observation, with
// underflow mapped to lo and overflow (or q = 1) to hi. The per-window
// snapshot path asks for p50/p90/p99 together.
func (h *Histogram) Quantiles3(q1, q2, q3 float64) (v1, v2, v3 float64) {
	if h.total == 0 {
		return 0, 0, 0
	}
	qs := [3]float64{q1, q2, q3}
	var vs [3]float64
	next := 0
	clamp := func(q float64) float64 { return math.Min(math.Max(q, 0), 1) }
	advance := func(cum uint64, v float64) {
		for next < 3 && cum > uint64(clamp(qs[next])*float64(h.total)) {
			vs[next] = v
			next++
		}
	}
	cum := h.underflow
	advance(cum, h.lo)
	for i, c := range h.buckets {
		if next == 3 {
			break
		}
		cum += c
		advance(cum, h.lo+(float64(i)+0.5)*h.width)
	}
	for next < 3 {
		vs[next] = h.hi
		next++
	}
	return vs[0], vs[1], vs[2]
}

// HarmonicMean returns the harmonic mean of xs. Zero or negative entries
// make the harmonic mean undefined; they yield 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// WeightedSpeedup returns per-program weighted speedups
// IPC_shared[i]/IPC_alone[i]. It panics if the slices differ in length.
func WeightedSpeedup(ipcShared, ipcAlone []float64) []float64 {
	if len(ipcShared) != len(ipcAlone) {
		panic("stats: mismatched speedup inputs")
	}
	out := make([]float64, len(ipcShared))
	for i := range out {
		if ipcAlone[i] <= 0 {
			out[i] = 0
			continue
		}
		out[i] = ipcShared[i] / ipcAlone[i]
	}
	return out
}

// Hsp returns the harmonic weighted speedup of Luo, Gummaraju and Franklin
// (ISPASS 2001), used by the paper's Fig. 8: the harmonic mean of the
// per-program weighted speedups. It balances throughput and fairness.
func Hsp(ipcShared, ipcAlone []float64) float64 {
	return HarmonicMean(WeightedSpeedup(ipcShared, ipcAlone))
}
