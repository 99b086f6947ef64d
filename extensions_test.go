package lpm

import (
	"testing"

	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

func TestExtensionsCoherentNoCChip(t *testing.T) {
	gens := make([]trace.Generator, 16)
	for i, name := range []string{"456.hmmer", "444.namd"} {
		gens[i] = trace.WithSharedRegion(trace.NewSynthetic(trace.MustProfile(name)), trace.GlobalBase, 8192, 0.2, uint64(i+1))
	}
	cfg := chip.NUCA16(gens)
	n := noc.Default(16)
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

func TestExtensionsSchedulingAPI(t *testing.T) {
	names := []string{"401.bzip2", "403.gcc", "429.mcf", "433.milc"}
	sizes := []uint64{4096, 16384, 32768, 65536}
	tbl, err := sched.BuildProfileTable(bg, names, sizes, sched.ProfileOptions{Instructions: 6000, Warmup: 15000})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sched.Evaluate(bg, sched.NUCASA{Table: tbl, TolFrac: 0.1}, names, sizes,
		sched.EvalOptions{WindowCycles: 30000, WarmupCycles: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Hsp <= 0 {
		t.Fatalf("Hsp = %v", ev.Hsp)
	}
	ev2, err := sched.Evaluate(bg, sched.PIE{Table: tbl}, names, sizes,
		sched.EvalOptions{WindowCycles: 30000, WarmupCycles: 15000, AloneIPC: ev.IPCAlone})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Hsp <= 0 {
		t.Fatal("PIE evaluation failed")
	}
}
