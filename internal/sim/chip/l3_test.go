package chip

import (
	"testing"

	"lpm/internal/analyzer"
	"lpm/internal/trace"
)

// threeLevelConfig returns a single-core chip with a small L2 and a
// larger L3.
func threeLevelConfig(profile string) Config {
	cfg := SingleCore(profile)
	cfg.L2 = DefaultL2("L2", 256*KB)
	l3 := DefaultL2("L3", 4*MB)
	l3.HitLatency = 25
	cfg.L3 = &l3
	return cfg
}

func TestL3ConfigValidated(t *testing.T) {
	cfg := threeLevelConfig("403.gcc")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := threeLevelConfig("403.gcc")
	bad.L3.Ports = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad L3 accepted")
	}
}

func TestThreeLevelHierarchyRuns(t *testing.T) {
	ch := New(threeLevelConfig("403.gcc"))
	_, done := ch.Run(20000, 20_000_000)
	if !done {
		t.Fatal("did not retire")
	}
	if ch.L3() == nil {
		t.Fatal("L3 missing")
	}
	r3 := ch.L3().Analyzer().Snapshot()
	if r3.Completed == 0 {
		t.Fatal("L3 saw no traffic despite a small L2")
	}
	// Filtering: each level sees no more traffic than the one above.
	r2 := ch.L2().Analyzer().Snapshot()
	r1 := ch.Snapshot().Cores[0].L1
	if !(r1.Completed >= r2.Completed && r2.Completed >= r3.Completed) {
		t.Fatalf("traffic not filtered: L1=%d L2=%d L3=%d",
			r1.Completed, r2.Completed, r3.Completed)
	}
	if ch.Busy() {
		t.Fatal("not drained")
	}
}

func TestL3AbsorbsL2Misses(t *testing.T) {
	// A workload re-touching a 512 KB hot region: far too big for the
	// 256 KB L2 alone, comfortably resident in the 4 MB L3.
	prof := trace.Profile{
		Name: "l3test", MemFrac: 0.4, StoreFrac: 0.2,
		Footprint: 512 * KB, HotBytes: 512 * KB, HotFrac: 1.0,
		SeqFrac: 0, Stride: 8, DepDist: 8, ExecLat: 1.2,
	}
	run := func(withL3 bool) uint64 {
		cfg := threeLevelConfig("403.gcc")
		cfg.Cores[0].Workload = trace.NewSynthetic(prof)
		if !withL3 {
			cfg.L3 = nil
		}
		ch := New(cfg)
		ch.RunUntilRetired(400000, 200_000_000)
		ch.ResetCounters()
		ch.Run(30000, 200_000_000)
		return ch.Mem().Stats().Reads
	}
	with, without := run(true), run(false)
	if with >= without/2 {
		t.Fatalf("L3 did not absorb misses: reads with=%d without=%d", with, without)
	}
}

// TestHierarchyDepthWithL3: the optional L3 joins the request chain the
// model reads, between the L2 and memory, and every layer's LPMR over it
// is defined.
func TestHierarchyDepthWithL3(t *testing.T) {
	gen := trace.NewSynthetic(trace.MustProfile("403.gcc"))
	cfg := threeLevelConfig("403.gcc")
	cpiExe := MeasureCPIexe(cfg.Cores[0].CPU, gen, 3, 15000)
	ch := New(cfg)
	ch.Run(20000, 20_000_000)
	_, h := ch.counters([]int{0})
	if len(h.Levels) != 3 {
		t.Fatalf("%d cache levels, want 3 (L1,L2,L3)", len(h.Levels))
	}
	var mrs []float64
	for j, l := range h.Levels {
		if v := analyzer.LPMR(l.CAMAT(), h.Fmem(), cpiExe, mrs...); v < 0 {
			t.Fatalf("LPMR%d = %v", j+1, v)
		}
		mrs = append(mrs, h.MR(j))
	}
	if v := analyzer.LPMR(h.MemCAMAT(), h.Fmem(), cpiExe, mrs...); v <= 0 {
		t.Fatalf("memory LPMR = %v, want positive", v)
	}
	// Two-level chips read two cache levels.
	ch2 := New(SingleCore("403.gcc"))
	ch2.Run(10000, 20_000_000)
	if _, h2 := ch2.counters([]int{0}); len(h2.Levels) != 2 {
		t.Fatalf("%d cache levels, want 2", len(h2.Levels))
	}
}
