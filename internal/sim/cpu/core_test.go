package cpu

import (
	"testing"

	"lpm/internal/trace"
)

// scriptGen replays a fixed instruction slice, then repeats it.
type scriptGen struct {
	name   string
	instrs []trace.Instr
	pos    int
}

func (g *scriptGen) Name() string { return g.name }
func (g *scriptGen) Reset()       { g.pos = 0 }
func (g *scriptGen) Next() trace.Instr {
	in := g.instrs[g.pos%len(g.instrs)]
	g.pos++
	return in
}

func coreCfg() Config {
	return Config{Name: "c0", IssueWidth: 2, ROBSize: 32, IWSize: 16}
}

// runCore drives core+mem for at most budget cycles or until n retire.
func runCore(c *Core, mem *Perfect, n uint64, budget int) {
	for cy := uint64(1); cy <= uint64(budget); cy++ {
		c.Tick(cy)
		mem.Tick(cy)
		if c.Retired() >= n {
			return
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := coreCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.IWSize = 0 },
		func(c *Config) { c.CommitWidth = -1 },
	}
	for i, mut := range bads {
		c := coreCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestIndependentComputeReachesIssueWidth(t *testing.T) {
	// Unlimited-ILP compute stream: IPC should approach IssueWidth.
	g := &scriptGen{name: "ilp", instrs: []trace.Instr{{Kind: trace.Compute, Lat: 1}}}
	mem := &Perfect{Latency: 1}
	c := New(coreCfg(), g, mem)
	runCore(c, mem, 10000, 20000)
	if ipc := c.Stats().IPC(); ipc < 1.8 {
		t.Fatalf("IPC = %.3f, want near issue width 2", ipc)
	}
}

func TestDependenceChainSerialises(t *testing.T) {
	// Every instruction depends on the previous one with latency 3:
	// IPC ~ 1/3 regardless of width.
	g := &scriptGen{name: "chain", instrs: []trace.Instr{{Kind: trace.Compute, Lat: 3, Dep: 1}}}
	mem := &Perfect{Latency: 1}
	cfg := coreCfg()
	cfg.IssueWidth = 8
	cfg.ROBSize = 128
	cfg.IWSize = 128
	c := New(cfg, g, mem)
	runCore(c, mem, 3000, 20000)
	ipc := c.Stats().IPC()
	if ipc > 0.4 || ipc < 0.25 {
		t.Fatalf("IPC = %.3f, want ~1/3 for a latency-3 chain", ipc)
	}
}

func TestMemoryLatencyStallsInOrderRetirement(t *testing.T) {
	// All loads, memory latency 20, narrow window: CPI tracks latency
	// divided by achievable MLP.
	g := &scriptGen{name: "loads", instrs: []trace.Instr{{Kind: trace.Load, Addr: 0, Lat: 1}}}
	mem := &Perfect{Latency: 20}
	cfg := coreCfg()
	cfg.IWSize = 4 // at most 4 outstanding
	c := New(cfg, g, mem)
	runCore(c, mem, 2000, 100000)
	st := c.Stats()
	if st.MemStallCycles == 0 {
		t.Fatal("no memory stalls with 20-cycle loads")
	}
	// With IW=4 and latency 20, throughput <= 4/20 per cycle.
	if ipc := st.IPC(); ipc > 0.25 {
		t.Fatalf("IPC = %.3f exceeds MLP bound 0.2", ipc)
	}
}

func TestLargerWindowRaisesMLP(t *testing.T) {
	ipcFor := func(iw int) float64 {
		g := &scriptGen{name: "loads", instrs: []trace.Instr{{Kind: trace.Load, Lat: 1}}}
		mem := &Perfect{Latency: 20}
		cfg := coreCfg()
		cfg.IWSize = iw
		cfg.ROBSize = 2 * iw
		c := New(cfg, g, mem)
		runCore(c, mem, 3000, 200000)
		return c.Stats().IPC()
	}
	small, large := ipcFor(2), ipcFor(16)
	if large < 2*small {
		t.Fatalf("IW 16 IPC %.3f not >> IW 2 IPC %.3f", large, small)
	}
}

func TestLSQBoundsOutstandingAccesses(t *testing.T) {
	g := &scriptGen{name: "loads", instrs: []trace.Instr{{Kind: trace.Load, Lat: 1}}}
	mem := &Perfect{Latency: 50}
	cfg := coreCfg()
	cfg.IWSize = 32
	cfg.ROBSize = 64
	cfg.LSQSize = 2
	c := New(cfg, g, mem)
	// Step a few cycles, then check outstanding never exceeds 2.
	for cy := uint64(1); cy < 200; cy++ {
		c.Tick(cy)
		if c.inLSQ > 2 {
			t.Fatalf("LSQ occupancy %d > 2 at cycle %d", c.inLSQ, cy)
		}
		mem.Tick(cy)
	}
	if c.Stats().LSQFullEvents == 0 {
		t.Fatal("expected LSQ-full events")
	}
}

func TestPointerChaseSerialisesLoads(t *testing.T) {
	// Dependent loads (Dep=1) with latency 25: IPC ~ 1/25; independent
	// loads with wide window go much faster.
	run := func(dep uint32) float64 {
		g := &scriptGen{name: "x", instrs: []trace.Instr{{Kind: trace.Load, Dep: dep, Lat: 1}}}
		mem := &Perfect{Latency: 25}
		cfg := coreCfg()
		cfg.IWSize = 32
		cfg.ROBSize = 64
		c := New(cfg, g, mem)
		runCore(c, mem, 1000, 200000)
		return c.Stats().IPC()
	}
	chained, independent := run(1), run(0)
	if independent < 5*chained {
		t.Fatalf("independent loads IPC %.4f not >> chained %.4f", independent, chained)
	}
}

func TestFmemMeasurement(t *testing.T) {
	g := &scriptGen{name: "mix", instrs: []trace.Instr{
		{Kind: trace.Load, Lat: 1},
		{Kind: trace.Compute, Lat: 1},
		{Kind: trace.Compute, Lat: 1},
		{Kind: trace.Store, Lat: 1},
	}}
	mem := &Perfect{Latency: 2}
	c := New(coreCfg(), g, mem)
	runCore(c, mem, 4000, 100000)
	if f := fmem(c.Stats()); f < 0.49 || f > 0.51 {
		t.Fatalf("fmem = %.3f, want 0.5", f)
	}
}

// fmem is the fraction of retired instructions that access memory (the
// model's f_mem, which analyzer.Hierarchy derives for measurements).
func fmem(s Stats) float64 { return float64(s.MemInstructions) / float64(s.Instructions) }

func TestHaltDrains(t *testing.T) {
	g := &scriptGen{name: "loads", instrs: []trace.Instr{{Kind: trace.Load, Lat: 1}}}
	mem := &Perfect{Latency: 10}
	c := New(coreCfg(), g, mem)
	for cy := uint64(1); cy <= 50; cy++ {
		c.Tick(cy)
		mem.Tick(cy)
	}
	c.Halt()
	for cy := uint64(51); cy <= 500 && (c.Busy() || mem.Busy()); cy++ {
		c.Tick(cy)
		mem.Tick(cy)
	}
	if c.Busy() {
		t.Fatal("core did not drain after Halt")
	}
	if !c.Halted() {
		t.Fatal("Halted() false after Halt")
	}
}

func TestOverlapRatioHighWhenComputeCovers(t *testing.T) {
	// Loads interleaved with long independent compute: overlap should be
	// high.
	g := &scriptGen{name: "cover", instrs: []trace.Instr{
		{Kind: trace.Load, Lat: 1},
		{Kind: trace.Compute, Lat: 8},
		{Kind: trace.Compute, Lat: 8},
	}}
	mem := &Perfect{Latency: 8}
	c := New(coreCfg(), g, mem)
	runCore(c, mem, 3000, 100000)
	if r := c.Stats().OverlapRatio(); r < 0.5 {
		t.Fatalf("overlap ratio = %.3f, want >= 0.5", r)
	}

	// Pure dependent-load stream: negligible overlap.
	g2 := &scriptGen{name: "bare", instrs: []trace.Instr{{Kind: trace.Load, Dep: 1, Lat: 1}}}
	mem2 := &Perfect{Latency: 8}
	c2 := New(coreCfg(), g2, mem2)
	runCore(c2, mem2, 3000, 100000)
	if r := c2.Stats().OverlapRatio(); r > 0.4 {
		t.Fatalf("bare chase overlap ratio = %.3f, want small", r)
	}
}

func TestStatsDerivedQuantities(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.CPI() != 0 || s.OverlapRatio() != 0 || s.DataStallPerInstr() != 0 {
		t.Fatal("zero stats must yield zero derived values")
	}
	s = Stats{Cycles: 100, Instructions: 50, MemInstructions: 10,
		MemStallCycles: 20, MemActiveCycles: 40, OverlapCycles: 10}
	if s.IPC() != 0.5 || s.CPI() != 2 {
		t.Fatal("IPC/CPI wrong")
	}
	if s.OverlapRatio() != 0.25 {
		t.Fatal("overlap wrong")
	}
	if s.DataStallPerInstr() != 0.4 {
		t.Fatal("stall/instr wrong")
	}
}

func TestResetCountersKeepsPipeline(t *testing.T) {
	g := &scriptGen{name: "loads", instrs: []trace.Instr{{Kind: trace.Load, Lat: 1}}}
	mem := &Perfect{Latency: 5}
	c := New(coreCfg(), g, mem)
	for cy := uint64(1); cy <= 20; cy++ {
		c.Tick(cy)
		mem.Tick(cy)
	}
	c.ResetCounters()
	if c.Stats().Instructions != 0 {
		t.Fatal("counters not reset")
	}
	if !c.Busy() {
		t.Fatal("pipeline emptied by ResetCounters")
	}
}

func TestSyntheticWorkloadRuns(t *testing.T) {
	// End-to-end smoke: a real profile on a perfect memory retires
	// instructions and yields sane stats.
	g := trace.NewSynthetic(trace.MustProfile("401.bzip2"))
	mem := &Perfect{Latency: 3}
	cfg := coreCfg()
	cfg.IssueWidth = 4
	cfg.ROBSize = 64
	cfg.IWSize = 32
	c := New(cfg, g, mem)
	runCore(c, mem, 20000, 400000)
	st := c.Stats()
	if st.Instructions < 20000 {
		t.Fatalf("retired only %d", st.Instructions)
	}
	if ipc := st.IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %.3f out of range", ipc)
	}
	if f := fmem(st); f < 0.25 || f > 0.45 {
		t.Fatalf("fmem = %.3f, profile says 0.34", f)
	}
}

func TestPerfectMemory(t *testing.T) {
	p := &Perfect{Latency: 4}
	var doneAt uint64
	p.Access(10, 0, false, func(c uint64) { doneAt = c })
	for cy := uint64(11); cy <= 20 && doneAt == 0; cy++ {
		p.Tick(cy)
	}
	if doneAt != 14 {
		t.Fatalf("done at %d, want 14", doneAt)
	}
	if p.Count() != 1 {
		t.Fatal("count wrong")
	}
}
