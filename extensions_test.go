package lpm

import (
	"testing"
)

func TestExtensionsSMTThroughPublicAPI(t *testing.T) {
	g1, err := NewWorkload("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewWorkload("444.namd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := CPUConfig{Name: "smt", IssueWidth: 4, ROBSize: 48, IWSize: 48, LSQSize: 24}
	// Drive against a single cache so the public path compiles end to end.
	chipCfg := SingleCore("429.mcf")
	chipCfg.Cores[0].Workload = g1
	ch := NewChip(chipCfg)
	smt := NewSMT(cfg, []Workload{WithOffset(g1, 0), WithOffset(g2, 1<<33)}, ch.L1(0))
	for cy := uint64(1); cy <= 50000 && smt.Retired() < 5000; cy++ {
		smt.Tick(cy)
		ch.L1(0).Tick(cy)
		ch.L2().Tick(cy)
		ch.Mem().Tick(cy)
	}
	if smt.Retired() < 5000 {
		t.Fatalf("retired %d", smt.Retired())
	}
	if smt.ThreadStats(0).Instructions == 0 || smt.ThreadStats(1).Instructions == 0 {
		t.Fatal("a thread starved")
	}
}

func TestExtensionsCoherentNoCChip(t *testing.T) {
	gens := make([]Workload, 16)
	for i, name := range []string{"456.hmmer", "444.namd"} {
		g, err := NewWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = WithSharedRegion(g, GlobalBase, 8192, 0.2, uint64(i+1))
	}
	cfg := NUCA16(gens)
	n := DefaultNoC(16)
	cfg.NoC = &n
	cfg.Coherent = true
	cfg.CoherenceInvalLatency = 8
	ch := NewChip(cfg)
	ch.RunCycles(40000)
	if ch.Router() == nil || ch.Directory() == nil {
		t.Fatal("extensions not wired")
	}
	if ch.Router().Stats().Requests == 0 {
		t.Fatal("NoC idle")
	}
	if ch.Directory().Stats().ReadFetches == 0 {
		t.Fatal("directory idle")
	}
}

func TestExtensionsPhaseAPI(t *testing.T) {
	tr := NewPhaseTracker(NewPhaseDetector(0.1))
	s1 := PhaseSignatureFromLPM(0.4, 0.3, 0.2, 1.5, 3, 0.3)
	s2 := PhaseSignatureFromLPM(0.2, 0.01, 0.001, 2.5, 1, 2.5)
	tr.Observe(s1)
	if _, changed := tr.Observe(s2); !changed {
		t.Fatal("change not detected")
	}
	if tr.Phases() != 2 {
		t.Fatalf("phases = %d", tr.Phases())
	}
}

func TestExtensionsSchedulingAPI(t *testing.T) {
	names := []string{"401.bzip2", "403.gcc", "429.mcf", "433.milc"}
	sizes := []uint64{4096, 16384, 32768, 65536}
	tbl, err := BuildSchedProfileTable(bg, names, sizes, SchedProfileOptionsQuick())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateScheduler(bg, NUCASAScheduler{Table: tbl, TolFrac: 0.1}, names, sizes,
		SchedEvalOptions{WindowCycles: 30000, WarmupCycles: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Hsp <= 0 {
		t.Fatalf("Hsp = %v", ev.Hsp)
	}
	// PIE through the facade too.
	ev2, err := EvaluateScheduler(bg, PIEScheduler{Table: tbl}, names, sizes,
		SchedEvalOptions{WindowCycles: 30000, WarmupCycles: 15000, AloneIPC: ev.IPCAlone})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Hsp <= 0 {
		t.Fatal("PIE evaluation failed")
	}
}
