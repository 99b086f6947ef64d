package explore

import (
	"context"
	"testing"

	"lpm/internal/core"
	"lpm/internal/trace"
)

func TestTableConfigsComplete(t *testing.T) {
	cfgs := TableConfigs()
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		if _, ok := cfgs[name]; !ok {
			t.Fatalf("missing configuration %s", name)
		}
	}
	// Table I values spot-check.
	a := cfgs["A"]
	if a.IssueWidth != 4 || a.IWSize != 32 || a.ROBSize != 32 || a.L1Ports != 1 || a.MSHRs != 4 || a.L2Banks != 4 {
		t.Fatalf("config A = %+v", a)
	}
	d, e := cfgs["D"], cfgs["E"]
	if e.IWSize >= d.IWSize || e.ROBSize >= d.ROBSize {
		t.Fatal("E must trim IW/ROB relative to D")
	}
}

func TestCostOrdering(t *testing.T) {
	cfgs := TableConfigs()
	// Incremental parallelism A..D raises cost; the trimmed E costs less
	// than D.
	if !(cfgs["A"].Cost() < cfgs["B"].Cost() &&
		cfgs["B"].Cost() < cfgs["C"].Cost() &&
		cfgs["C"].Cost() < cfgs["D"].Cost()) {
		t.Fatal("cost not increasing A..D")
	}
	if cfgs["E"].Cost() >= cfgs["D"].Cost() {
		t.Fatal("E not cheaper than D")
	}
}

func TestSpaceSizeIsMillion(t *testing.T) {
	if got := DefaultSpace().Size(); got != 1_000_000 {
		t.Fatalf("space size = %d, want 10^6 (paper: one million configurations)", got)
	}
}

func TestSpaceIndicesRoundTrip(t *testing.T) {
	s := DefaultSpace()
	for name, p := range TableConfigs() {
		got := s.At(s.Indices(p))
		if got != p {
			t.Errorf("config %s: %v -> %v (menus must contain Table I values)", name, p, got)
		}
	}
}

func TestIndexBelowMenuMapsToZero(t *testing.T) {
	if index([]int{4, 8, 16}, 2) != 0 {
		t.Fatal("value below menu should map to index 0")
	}
	if index([]int{4, 8, 16}, 100) != 2 {
		t.Fatal("value above menu should map to last index")
	}
}

func TestChipConfigRealisesPoint(t *testing.T) {
	p := Point{IssueWidth: 6, IWSize: 48, ROBSize: 96, L1Ports: 3, MSHRs: 12, L2Banks: 16}
	gen := trace.NewSynthetic(trace.MustProfile("410.bwaves"))
	cfg := ChipConfig(p, gen)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores[0].CPU.IssueWidth != 6 || cfg.Cores[0].CPU.IWSize != 48 || cfg.Cores[0].CPU.ROBSize != 96 {
		t.Fatal("core point not realised")
	}
	if cfg.Cores[0].L1.Ports != 3 || cfg.Cores[0].L1.MSHRs != 12 {
		t.Fatal("L1 point not realised")
	}
	if cfg.L2.Banks != 16 {
		t.Fatal("L2 interleaving not realised")
	}
}

func TestOptimizeStepsMoveKnobs(t *testing.T) {
	s := DefaultSpace()
	tgt := NewHardwareTarget(s, TableConfigs()["A"], trace.MustProfile("410.bwaves"))
	before := tgt.Current()
	if !tgt.OptimizeL1() {
		t.Fatal("L1 step refused")
	}
	after := tgt.Current()
	if after == before {
		t.Fatal("L1 step changed nothing")
	}
	if after.MSHRs != before.MSHRs || after.L2Banks != before.L2Banks {
		t.Fatal("L1 step touched L2 knobs")
	}

	if !tgt.OptimizeL2() {
		t.Fatal("L2 step refused")
	}
	l2after := tgt.Current()
	if l2after.MSHRs == after.MSHRs && l2after.L2Banks == after.L2Banks {
		t.Fatal("L2 step changed nothing")
	}
}

func TestOptimizeExhaustsAtMenuTop(t *testing.T) {
	s := Space{
		IssueWidths: []int{4}, IWSizes: []int{32}, ROBSizes: []int{32},
		L1Ports: []int{1}, MSHRs: []int{4}, L2Banks: []int{4},
	}
	tgt := NewHardwareTarget(s, TableConfigs()["A"], trace.MustProfile("410.bwaves"))
	if tgt.OptimizeL1() || tgt.OptimizeL2() {
		t.Fatal("singleton space cannot be optimized")
	}
	if tgt.ReduceOverprovision() {
		t.Fatal("singleton space cannot be reduced")
	}
}

func TestReducePrefersIWAndROB(t *testing.T) {
	tgt := NewHardwareTarget(DefaultSpace(), TableConfigs()["D"], trace.MustProfile("410.bwaves"))
	before := tgt.Current()
	if !tgt.ReduceOverprovision() {
		t.Fatal("reduce refused")
	}
	after := tgt.Current()
	if after.IWSize >= before.IWSize {
		t.Fatalf("first reduction should shrink IW: %v -> %v", before, after)
	}
}

func TestStallShapeAtoD(t *testing.T) {
	// Reproduction core of Table I / case study I: configuration D
	// (incremental parallelism) must slash both LPMR1 and the measured
	// stall relative to configuration A.
	eval := func(name string) core.Measurement {
		tgt := NewHardwareTarget(DefaultSpace(), TableConfigs()[name], trace.MustProfile("410.bwaves"))
		tgt.Warmup = 150000
		tgt.Instructions = 25000
		m, err := tgt.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, d := eval("A"), eval("D")
	if d.LPMR1() >= a.LPMR1()*0.8 {
		t.Fatalf("LPMR1: A=%.2f D=%.2f — parallelism did not close the mismatch", a.LPMR1(), d.LPMR1())
	}
	stallPct := func(m core.Measurement) float64 { return 100 * m.MeasuredStall / m.CPIexe }
	if stallPct(d) >= stallPct(a)/2 {
		t.Fatalf("stall%%: A=%.1f D=%.1f — expected large reduction", stallPct(a), stallPct(d))
	}
	if a.Eta() <= 0 {
		t.Fatal("eta not measured")
	}
}

func TestLPMAlgorithmExploresTinyFractionOfSpace(t *testing.T) {
	tgt := NewHardwareTarget(DefaultSpace(), TableConfigs()["A"], trace.MustProfile("410.bwaves"))
	tgt.Warmup = 100000
	tgt.Instructions = 15000
	res, final, err := tgt.RunAlgorithmCtx(context.Background(), core.AlgorithmConfig{Grain: CoarseGrainCfg().Grain, MaxSteps: 24})
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Evaluations() == 0 {
		t.Fatal("no evaluations")
	}
	if tgt.Evaluations() > 40 {
		t.Fatalf("%d evaluations — not a guided search", tgt.Evaluations())
	}
	spaceFrac := float64(tgt.Evaluations()) / float64(DefaultSpace().Size())
	if spaceFrac > 0.001 {
		t.Fatalf("explored %.4f%% of the space", spaceFrac*100)
	}
	// The walk must strictly raise parallelism from A somewhere.
	if final == TableConfigs()["A"] && len(res.Steps) > 1 {
		t.Fatal("algorithm never moved")
	}
	// LPMR1 must improve from the first measurement to the final one.
	first := res.Steps[0].Before
	if res.Final.LPMR1() >= first.LPMR1() && !res.MetTarget {
		t.Fatalf("no improvement: %.3f -> %.3f", first.LPMR1(), res.Final.LPMR1())
	}
}

// CoarseGrainCfg returns the coarse-grained algorithm configuration used
// by tests.
func CoarseGrainCfg() core.AlgorithmConfig {
	return core.AlgorithmConfig{Grain: core.CoarseGrain}
}

func TestEvaluationHistoryRecorded(t *testing.T) {
	tgt := NewHardwareTarget(DefaultSpace(), TableConfigs()["A"], trace.MustProfile("410.bwaves"))
	tgt.Warmup = 20000
	tgt.Instructions = 5000
	for i := 0; i < 2; i++ { // the second is memoised: no second simulation
		if _, err := tgt.Measure(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if tgt.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1 (memoised)", tgt.Evaluations())
	}
	if len(tgt.history) != 1 {
		t.Fatalf("history = %d", len(tgt.history))
	}
	if tgt.history[0].Point != TableConfigs()["A"] {
		t.Fatal("history records wrong point")
	}
}

func TestPointString(t *testing.T) {
	s := TableConfigs()["C"].String()
	if s == "" {
		t.Fatal("empty point string")
	}
}
