package cache_test

import (
	"runtime"
	"testing"

	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// TestL2PagesFollowFills pins how much of the 8 MB NUCA L2's tag store
// (256 pages of 64 sets) a profiling run allocates under fig67's
// quick-scale protocol at a 64 KB L1: 70,000 warm-up and 15,000
// measured instructions. 401.bzip2 fits its caches and fills 9 pages;
// 429.mcf's 16 MB footprint reaches every set. Both counts are
// deterministic.
func TestL2PagesFollowFills(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pages int
	}{{"401.bzip2", 9}, {"429.mcf", 256}} {
		ch := chip.New(chip.NUCASingle(trace.NewSynthetic(trace.MustProfile(tc.name)), 64*chip.KB))
		const warmup, window, maxCycles = 70000, 15000, (70000 + 15000) * 600
		if err := ch.WarmUp(warmup, chip.WarmInstructions, false, maxCycles); err != nil {
			t.Fatal(err)
		}
		ch.ResetCounters()
		ch.Run(window, maxCycles)
		if err := ch.Err(); err != nil {
			t.Fatal(err)
		}
		if got, slots := cache.Pages(ch.L2()); got != tc.pages || slots != 256 {
			t.Errorf("%s: L2 allocated %d of %d pages, want %d of 256", tc.name, got, slots, tc.pages)
		}
	}
}

// TestLongRunAllocatesOnlyPages runs a warmed chip for a million
// cycles and bounds its heap allocations by the page-table slots of its
// caches: a page is allocated once, by its first fill, and nothing else
// grows with the run's length (the rest is the MSHR and DRAM pools
// reaching a new high-water mark). TestSteadyStateZeroAlloc's
// per-100-cycle average truncates these rare allocations away.
func TestLongRunAllocatesOnlyPages(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, name := range []string{"401.bzip2", "429.mcf"} {
		ch := chip.New(chip.NUCASingle(trace.NewSynthetic(trace.MustProfile(name)), 64*chip.KB))
		ch.RunCycles(20000)
		pages := func() (n, slots int) {
			for _, c := range []*cache.Cache{ch.L1(0), ch.L2()} {
				a, s := cache.Pages(c)
				n, slots = n+a, slots+s
			}
			return n, slots
		}
		before, _ := pages()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ch.RunCycles(1000000)
		runtime.ReadMemStats(&m1)
		after, slots := pages()
		if mallocs := m1.Mallocs - m0.Mallocs; mallocs > uint64(slots) {
			t.Errorf("%s: %d allocations over a million cycles, more than the %d page-table slots", name, mallocs, slots)
		}
		if after == before {
			t.Errorf("%s: no page allocated over a million cycles: the run does not exercise first fills", name)
		}
	}
}
