package main

import (
	"fmt"
	"runtime"
	"time"

	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/coherence"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// engineShape is one engine workload: the chip it simulates and the
// fixed amounts of simulated work the benchmark times on it.
type engineShape struct {
	// sliceCycles is the fixed length of one timed slice. Fixed cycles,
	// not fixed wall-clock, so every slice of a workload does the same
	// simulated work and the median over slices is meaningful.
	sliceCycles uint64
	// warmCycles run before any timing, so the modelled caches hold
	// their steady-state contents when statistics start.
	warmCycles uint64
	// warmInstr is the instruction count of the detailed-vs-functional
	// warm-up comparison (chip.functional_speedup).
	warmInstr uint64
	// programs lists the profile run on each core.
	programs []string
	// cmp selects the 16-core NUCA chip with NoC, directory and a
	// shared region; otherwise the one-core NUCA reference platform.
	cmp bool
}

// Slice lengths are sized for roughly 40 ms of host time each on the
// reference box, which gives well over a hundred slices in a ten-second
// run: enough for a stable median and for p90 to have ten samples
// beyond it.
var engineShapes = map[string]engineShape{
	wEngineCPU: {sliceCycles: 100_000, warmCycles: 200_000, warmInstr: 100_000, programs: []string{"401.bzip2"}},
	wEngineMem: {sliceCycles: 200_000, warmCycles: 200_000, warmInstr: 100_000, programs: []string{"429.mcf"}},
	wEngineCMP: {sliceCycles: 10_000, warmCycles: 60_000, warmInstr: 10_000, cmp: true,
		programs: []string{
			"401.bzip2", "429.mcf", "433.milc", "403.gcc", "401.bzip2", "429.mcf", "433.milc", "403.gcc",
			"401.bzip2", "429.mcf", "433.milc", "403.gcc", "401.bzip2", "429.mcf", "433.milc", "403.gcc"}},
}

// Shared region of engine_cmp: 256 KB that 5% of every core's memory
// accesses fall into, so stores really invalidate remote copies.
const (
	sharedBase = trace.GlobalBase
	sharedSize = 256 * chip.KB
	sharedFrac = 0.05
)

// build assembles the workload's chip configuration from the seed. wrap,
// when non-nil, is applied last to every core's generator — the hook
// the stopwatch rig uses to time the trace layer.
func (s engineShape) build(seed uint64, wrap func(core int, g trace.Generator) trace.Generator) chip.Config {
	gens := make([]trace.Generator, len(s.programs))
	for i, name := range s.programs {
		prof := trace.MustProfile(name)
		// Distinct streams per seed and per core: four copies of one
		// program must not march in lockstep.
		prof.Seed += seed*64 + uint64(i)
		gens[i] = trace.NewSynthetic(prof)
	}
	var cfg chip.Config
	if s.cmp {
		cfg = chip.NUCA16(gens)
		router := noc.Default(len(gens))
		cfg.NoC = &router
		cfg.Coherent = true
		cfg.CoherenceInvalLatency = 8
		// NUCA16 wraps every generator in a per-core address offset, so
		// the shared region has to go on top of that wrapper: applied
		// underneath it, each core's "shared" block is relocated to a
		// private address and nothing is ever invalidated.
		for i := range cfg.Cores {
			cfg.Cores[i].Workload = trace.WithSharedRegion(cfg.Cores[i].Workload,
				sharedBase, sharedSize, sharedFrac, seed*64+uint64(i)+1)
		}
	} else {
		cfg = chip.NUCASingle(gens[0], 64*chip.KB)
	}
	if wrap != nil {
		for i := range cfg.Cores {
			cfg.Cores[i].Workload = wrap(i, cfg.Cores[i].Workload)
		}
	}
	return cfg
}

// warm builds the chip and runs its warm-up cycles: one set-up.
func (s engineShape) warm(seed uint64, wrap func(int, trace.Generator) trace.Generator) *chip.Chip {
	ch := chip.New(s.build(seed, wrap))
	ch.RunCycles(s.warmCycles)
	return ch
}

// chipStats is every simulated count the identity checks compare.
type chipStats struct {
	cores []cpu.Stats
	l1    []cache.Stats
	l2    cache.Stats
	mem   dram.Stats
	noc   noc.Stats
	dir   coherence.Stats
}

// parts is the chip taken apart through its public accessors: what the
// identity checks read and what the stopwatch rig ticks.
type parts struct {
	cores  []*cpu.Core
	l1s    []*cache.Cache
	dir    *coherence.Directory
	router *noc.Router
	l2, l3 *cache.Cache
	mem    *dram.DRAM
}

func takeApart(ch *chip.Chip) parts {
	p := parts{dir: ch.Directory(), router: ch.Router(), l2: ch.L2(), l3: ch.L3(), mem: ch.Mem()}
	for i := range ch.Config().Cores {
		if c := ch.Core(i); c != nil {
			p.cores = append(p.cores, c)
		}
		p.l1s = append(p.l1s, ch.L1(i))
	}
	return p
}

func (p parts) stats() chipStats {
	s := chipStats{l2: p.l2.Stats(), mem: p.mem.Stats()}
	for _, c := range p.cores {
		s.cores = append(s.cores, c.Stats())
	}
	for _, l1 := range p.l1s {
		s.l1 = append(s.l1, l1.Stats())
	}
	if p.router != nil {
		s.noc = p.router.Stats()
	}
	if p.dir != nil {
		s.dir = p.dir.Stats()
	}
	return s
}

// diff returns "" when the two snapshots are identical, else the first
// difference.
func (a chipStats) diff(b chipStats) string {
	if len(a.cores) != len(b.cores) || len(a.l1) != len(b.l1) {
		return "different chip shapes"
	}
	for i := range a.cores {
		if a.cores[i] != b.cores[i] {
			return fmt.Sprintf("core %d: %+v vs %+v", i, a.cores[i], b.cores[i])
		}
	}
	for i := range a.l1 {
		if a.l1[i] != b.l1[i] {
			return fmt.Sprintf("L1 %d: %+v vs %+v", i, a.l1[i], b.l1[i])
		}
	}
	switch {
	case a.l2 != b.l2:
		return fmt.Sprintf("L2: %+v vs %+v", a.l2, b.l2)
	case a.mem != b.mem:
		return fmt.Sprintf("DRAM: %+v vs %+v", a.mem, b.mem)
	case a.noc != b.noc:
		return fmt.Sprintf("NoC: %+v vs %+v", a.noc, b.noc)
	case a.dir != b.dir:
		return fmt.Sprintf("directory: %+v vs %+v", a.dir, b.dir)
	}
	return ""
}

// checkShared fails the run when engine_cmp's chip did no coherence or
// interconnect work — the workload would then be a slow engine_mem.
func (rc *runCtx) checkShared(s engineShape, st chipStats) {
	if !s.cmp {
		return
	}
	if st.dir.Invalidations == 0 {
		rc.res.fail("engine_cmp recorded no invalidations: the shared region is not shared")
	}
	if st.noc.Requests == 0 {
		rc.res.fail("engine_cmp recorded no NoC requests")
	}
}

// runEngine is the entry point of the three engine workloads.
func runEngine(rc *runCtx) error {
	shape := engineShapes[rc.workload]
	if rc.smoke {
		shape.warmCycles /= 4
	}
	if rc.traced {
		return runEngineTraced(rc, shape)
	}

	var ch *chip.Chip
	for i := 0; i < setupRepeats; i++ {
		_ = rc.timeSetup(func() error { ch = shape.warm(rc.seed, nil); return nil })
	}
	p := takeApart(ch)

	// Timed slices on the production path: detailed tier, fast-forward
	// on. Snapshots at power-of-two slice counts give the identity
	// check a prefix it can afford to replay stepped.
	var ops []timed
	type mark struct {
		slices int
		stats  chipStats
	}
	var marks []mark
	var wall time.Duration
	mcycles := float64(shape.sliceCycles) / 1e6
	for deadline := time.Now().Add(rc.budget(1)); time.Now().Before(deadline); {
		start := time.Now()
		ch.RunCycles(shape.sliceCycles)
		d := time.Since(start)
		wall += d
		ops = append(ops, timed{wall, d.Seconds() * 1e3 / mcycles})
		if n := len(ops); n&(n-1) == 0 {
			marks = append(marks, mark{n, p.stats()})
		}
	}
	n := len(ops)
	rc.res.ops(n)
	quiet, _ := quietest(ops, wall)
	rc.res.setMedian("op_ms_p50", quiet)
	rc.res.set("mem_mb", liveHeapMB())
	runtime.KeepAlive(ch) // the chip is what the figure is about

	// Identity: a stepped chip (every cycle ticked) must show exactly
	// the fast-forward chip's statistics at the same cycle count. The
	// replay covers the longest marked prefix within about a fifth of
	// the timed slices, so checking costs a fraction of measuring.
	m := marks[0]
	for _, c := range marks {
		if c.slices <= max(1, n/5) {
			m = c
		}
	}
	ref := chip.New(shape.build(rc.seed, nil))
	ref.SetFastForward(false)
	ref.RunCycles(shape.warmCycles + uint64(m.slices)*shape.sliceCycles)
	refStats := takeApart(ref).stats()
	if d := m.stats.diff(refStats); d != "" {
		rc.res.fail("fast-forward and stepped statistics differ after %d slices: %s", m.slices, d)
	}
	rc.checkShared(shape, refStats)
	return nil
}
