package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1234)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.1", i, frac)
		}
	}
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) fraction %.4f", frac)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const p = 0.25
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("geometric mean %.3f, want ~%.3f", mean, want)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(13)
	const n = 50000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		v := r.Zipf(100, 1.2)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestRNGZipfDegenerate(t *testing.T) {
	r := NewRNG(17)
	if v := r.Zipf(1, 1.5); v != 0 {
		t.Fatalf("Zipf(1) = %d, want 0", v)
	}
	if v := r.Zipf(0, 1.5); v != 0 {
		t.Fatalf("Zipf(0) = %d, want 0", v)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := make([]int, 16)
	r.Perm(p)
	seen := make([]bool, 16)
	for _, v := range p {
		if v < 0 || v >= 16 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1) // underflow
	h.Add(11) // overflow
	if h.Total() != 12 {
		t.Fatalf("total = %d", h.Total())
	}
	for i := 0; i < 10; i++ {
		if h.buckets[i] != 1 {
			t.Fatalf("bucket %d = %d", i, h.buckets[i])
		}
	}
}

func TestHistogramUpperEdge(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0)) // just below hi
	if h.buckets[2] != 1 {
		t.Fatal("upper edge fell out of last bucket")
	}
}

// sortedQuantile is the reference for Quantiles3: sort the samples, take
// the floor(q·n)-th smallest, and report the bucket it landed in as the
// histogram does — its midpoint, lo for underflow, hi for overflow or
// when q = 1 runs past the last sample.
func sortedQuantile(samples []float64, lo, hi float64, n int, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Min(math.Max(q, 0), 1) * float64(len(s)))
	if idx >= len(s) {
		return hi
	}
	x := s[idx]
	switch {
	case x < lo:
		return lo
	case x >= hi:
		return hi
	}
	w := (hi - lo) / float64(n)
	b := min(int((x-lo)/w), n-1)
	return lo + (float64(b)+0.5)*w
}

func TestHistogramQuantile(t *testing.T) {
	if a, b, c := NewHistogram(0, 1, 4).Quantiles3(0.5, 0.9, 0.99); a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty histogram quantiles = %v %v %v, want zeros", a, b, c)
	}

	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	// Out-of-range quantiles clamp: q < 0 reads the smallest bucket, q > 1
	// the hi bound, exactly like q = 0 and q = 1.
	lo, mid, hi := h.Quantiles3(-0.5, 0.5, 1.5)
	if wlo, wmid, whi := h.Quantiles3(0, 0.5, 1); lo != wlo || mid != wmid || hi != whi {
		t.Fatalf("Quantiles3(-0.5, 0.5, 1.5) = %v %v %v, want %v %v %v", lo, mid, hi, wlo, wmid, whi)
	}
	if lo != 0.5 || mid != 50.5 || hi != 100 {
		t.Fatalf("Quantiles3(0, 0.5, 1) = %v %v %v, want 0.5 50.5 100", lo, mid, hi)
	}

	// Underflow reports lo and overflow hi.
	u := NewHistogram(10, 20, 10)
	for _, x := range []float64{-5, 1, 2, 15, 30, 40, 50} {
		u.Add(x)
	}
	if a, b, c := u.Quantiles3(0, 0.5, 0.9); a != 10 || b != 15.5 || c != 20 {
		t.Fatalf("under/overflow quantiles = %v %v %v, want 10 15.5 20", a, b, c)
	}

	// Random samples spilling over both ends: every triple matches the
	// sort-based reference.
	r := NewRNG(7)
	const lo2, hi2, n2 = 0.0, 50.0, 25
	g := NewHistogram(lo2, hi2, n2)
	var samples []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64()*70 - 10
		g.Add(x)
		samples = append(samples, x)
	}
	for _, qs := range [][3]float64{{0.5, 0.9, 0.99}, {0, 0.01, 0.1}, {0.25, 0.5, 0.75}, {0.9, 0.999, 1}, {0.3, 0.3, 0.3}} {
		got := [3]float64{}
		got[0], got[1], got[2] = g.Quantiles3(qs[0], qs[1], qs[2])
		for k, q := range qs {
			if want := sortedQuantile(samples, lo2, hi2, n2, q); got[k] != want {
				t.Errorf("Quantiles3%v[%d] = %v, sort-based q%v = %v", qs, k, got[k], q, want)
			}
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestHarmonicMean(t *testing.T) {
	got := HarmonicMean([]float64{1, 1, 1})
	if got != 1 {
		t.Fatalf("hm = %v", got)
	}
	got = HarmonicMean([]float64{2, 2})
	if got != 2 {
		t.Fatalf("hm = %v", got)
	}
	got = HarmonicMean([]float64{1, 3})
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("hm = %v", got)
	}
	if HarmonicMean(nil) != 0 {
		t.Fatal("hm(nil) != 0")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("hm with zero entry should be 0")
	}
}

func TestHarmonicLEGeometricLEArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			v := math.Abs(x)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		am := sum / float64(len(xs))
		var logSum float64
		for _, x := range xs {
			logSum += math.Log(x)
		}
		gm := math.Exp(logSum / float64(len(xs)))
		hm := HarmonicMean(xs)
		const eps = 1e-9
		return hm <= gm*(1+eps) && gm <= am*(1+eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHspIdentity(t *testing.T) {
	// When shared == alone, every weighted speedup is 1, so Hsp is 1.
	ipc := []float64{0.5, 1.2, 0.8, 2.0}
	if got := Hsp(ipc, ipc); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Hsp identity = %v", got)
	}
}

func TestHspBounds(t *testing.T) {
	shared := []float64{0.4, 0.9}
	alone := []float64{0.8, 1.0}
	h := Hsp(shared, alone)
	// Hsp must lie between the min and max weighted speedups.
	if h < 0.5 || h > 0.9 {
		t.Fatalf("Hsp = %v out of [0.5, 0.9]", h)
	}
}

func TestHspPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hsp([]float64{1}, []float64{1, 2})
}

func TestWeightedSpeedupZeroAlone(t *testing.T) {
	ws := WeightedSpeedup([]float64{1}, []float64{0})
	if ws[0] != 0 {
		t.Fatalf("ws = %v", ws)
	}
}
