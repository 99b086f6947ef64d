package stats_test

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"lpm/internal/stats"
	"lpm/internal/trace"
)

// The table samplers against their oracles. RNG.Bool, RNG.Geometric and
// RNG.Zipf are the definitions; BoolSampler, GeomSampler and ZipfSampler
// must return the same value from the same draw and consume the same
// number of draws, for every parameter the built-in profiles use.

// builtinParams collects the distinct sampler parameters of the sixteen
// built-in profiles: Bernoulli probabilities, geometric success
// probabilities (1/ExecLat, 1/DepDist) and hot-region block counts.
func builtinParams() (bools, geoms []float64, zipfs []int) {
	seenF := map[float64]bool{}
	seenG := map[float64]bool{}
	seenZ := map[int]bool{}
	for _, name := range trace.ProfileNames() {
		p := trace.MustProfile(name)
		for _, b := range []float64{p.MemFrac, p.StoreFrac, p.ChaseFrac, p.SeqFrac, p.HotFrac} {
			if !seenF[b] {
				seenF[b] = true
				bools = append(bools, b)
			}
		}
		for _, g := range []float64{1 / p.ExecLat, 1 / p.DepDist} {
			if !seenG[g] {
				seenG[g] = true
				geoms = append(geoms, g)
			}
		}
		if n := int(p.HotBytes / 64); !seenZ[n] {
			seenZ[n] = true
			zipfs = append(zipfs, n)
		}
	}
	sort.Float64s(bools)
	sort.Float64s(geoms)
	sort.Ints(zipfs)
	return bools, geoms, zipfs
}

// sampleCounts scales the checks: the full run is the issue's 2 M random
// draws and ±4096 m around every threshold.
func sampleCounts() (randomDraws int, neighbourhood uint64) {
	if testing.Short() {
		return 100_000, 64
	}
	return 2_000_000, 4096
}

// checkSampler compares sample (the table sampler) with oracle on
// draws random draws from a shared seed and on the near m either side of
// every threshold, and requires both to leave the generator in the same
// state.
func checkSampler(t *testing.T, thresholds []uint64, oracle, sample func(r *stats.RNG) int, seed uint64, draws int, near uint64) {
	t.Helper()
	a, b := stats.NewRNG(seed), stats.NewRNG(seed)
	for i := 0; i < draws; i++ {
		if want, got := oracle(a), sample(b); want != got {
			t.Fatalf("random draw %d: sampler %d, oracle %d", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("sampler and oracle consumed different numbers of draws")
	}
	for k, at := range thresholds {
		if k > 0 && at < thresholds[k-1] {
			t.Fatalf("thresholds not ascending at %d: %d after %d", k, at, thresholds[k-1])
		}
		lo := uint64(0)
		if at > near {
			lo = at - near
		}
		hi := min(at+near, stats.Draws-1)
		for m := lo; m <= hi; m++ {
			want, got := oracle(stats.RNGYielding(m)), sample(stats.RNGYielding(m))
			if want != got {
				t.Fatalf("m=%d (threshold %d is %d): sampler %d, oracle %d", m, k, at, got, want)
			}
		}
		// The threshold is where the oracle steps past k.
		if below, on := oracle(stats.RNGYielding(at-1)), oracle(stats.RNGYielding(at)); below > k || on <= k {
			t.Fatalf("threshold %d at m=%d: oracle gives %d just below and %d on it", k, at, below, on)
		}
	}
}

func TestGeomSamplerMatchesOracle(t *testing.T) {
	_, geoms, _ := builtinParams()
	for _, p := range geoms {
		p := p
		t.Run(fmt.Sprintf("p=%.4f", p), func(t *testing.T) {
			t.Parallel()
			s := stats.NewGeomSampler(p)
			draws, near := sampleCounts()
			checkSampler(t, s.Thresholds(),
				func(r *stats.RNG) int { return r.Geometric(p) },
				func(r *stats.RNG) int { return s.Sample(r) }, 12345, draws, near)
		})
	}
}

func TestZipfSamplerMatchesOracle(t *testing.T) {
	_, _, zipfs := builtinParams()
	for _, n := range zipfs {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			z := stats.NewZipfSampler(n, 0.6)
			draws, near := sampleCounts()
			checkSampler(t, z.Thresholds(),
				func(r *stats.RNG) int { return r.Zipf(n, 0.6) },
				func(r *stats.RNG) int { return z.Sample(r) }, 12345, draws, near)
		})
	}
}

// checkBool: Bool(p) is m < T for the sampler's T, so the oracle must
// flip exactly between m = T-1 and m = T; outside (0,1) neither draws.
func checkBool(t *testing.T, p float64) {
	t.Helper()
	b := stats.NewBoolSampler(p)
	thr, draw := b.Threshold()
	if !draw {
		r := stats.NewRNG(1)
		if got, want := b.Sample(r), stats.NewRNG(1).Bool(p); got != want {
			t.Fatalf("Bool(%v): sampler %v, oracle %v", p, got, want)
		}
		if r.Uint64() != stats.NewRNG(1).Uint64() {
			t.Fatalf("Bool(%v) consumed a draw", p)
		}
		return
	}
	for _, m := range []uint64{0, thr - 1, thr, stats.Draws - 1} {
		if m >= stats.Draws { // thr == 0 (NaN): no m-1
			continue
		}
		want, got := stats.RNGYielding(m).Bool(p), b.Sample(stats.RNGYielding(m))
		if want != got || want != (m < thr) {
			t.Fatalf("Bool(%v) at m=%d (T=%d): sampler %v, oracle %v", p, m, thr, got, want)
		}
	}
}

func TestBoolSamplerMatchesOracle(t *testing.T) {
	bools, _, _ := builtinParams()
	for _, p := range append(bools, -1, 0, 1, 2, 0.95, 5e-324, 1-0x1p-53, math.NaN()) {
		checkBool(t, p)
	}
	draws, _ := sampleCounts()
	for _, p := range bools {
		b := stats.NewBoolSampler(p)
		x, y := stats.NewRNG(99), stats.NewRNG(99)
		for i := 0; i < draws/10; i++ {
			if x.Bool(p) != b.Sample(y) {
				t.Fatalf("Bool(%v) diverged at draw %d", p, i)
			}
		}
		if x.Uint64() != y.Uint64() {
			t.Fatalf("Bool(%v): draw counts differ", p)
		}
	}
}

// TestRNGYielding pins the test hook itself.
func TestRNGYielding(t *testing.T) {
	for _, m := range []uint64{0, 1, 2, 1 << 20, 0x123456789abcd, stats.Draws - 1} {
		if got := stats.RNGYielding(m).Uint64() >> 11; got != m {
			t.Fatalf("RNGYielding(%d) draws %d", m, got)
		}
	}
}

// FuzzSamplerTables builds tables for arbitrary parameters and checks
// them against the oracles at every threshold (m = T-1, T, T+1), on
// seeded random draws, and for ascending order.
func FuzzSamplerTables(f *testing.F) {
	f.Add(1/1.2, 48, 0.6, uint64(1))
	f.Add(1/14.0, 960, 0.6, uint64(2))
	f.Add(0.5, 2, 1.0, uint64(3))
	f.Add(1e-9, 4096, 1.2, uint64(4))
	f.Add(1-0x1p-53, 3, 0.05, uint64(5))
	f.Add(0.999, 129, 2.5, uint64(6))
	f.Fuzz(func(t *testing.T, p float64, n int, s float64, seed uint64) {
		if !(p > 0 && p < 1) || n < 2 || n > 4096 || !(s > 0.01 && s < 4) {
			t.Skip()
		}
		g := stats.NewGeomSampler(p)
		checkSampler(t, g.Thresholds(),
			func(r *stats.RNG) int { return r.Geometric(p) },
			func(r *stats.RNG) int { return g.Sample(r) }, seed, 2000, 1)
		z := stats.NewZipfSampler(n, s)
		checkSampler(t, z.Thresholds(),
			func(r *stats.RNG) int { return r.Zipf(n, s) },
			func(r *stats.RNG) int { return z.Sample(r) }, seed, 2000, 1)
		checkBool(t, p)
	})
}

// TestSamplersSharedAcrossGoroutines: samplers come from a process-wide
// memo and are shared, so building and sampling them from many
// goroutines at once must be race-free and give every goroutine the
// oracle's stream (run under -race by `make race`-style passes).
func TestSamplersSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, p := 40+w%3, 1/float64(3+w%2)
			z, g := stats.NewZipfSampler(n, 0.6), stats.NewGeomSampler(p)
			a, b := stats.NewRNG(uint64(w)), stats.NewRNG(uint64(w))
			for i := 0; i < 2000; i++ {
				if z.Sample(a) != b.Zipf(n, 0.6) || g.Sample(a) != b.Geometric(p) {
					t.Errorf("goroutine %d diverged from the oracle at draw %d", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
