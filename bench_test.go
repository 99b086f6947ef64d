package lpm

// Benchmark harness: one benchmark per table/figure of the paper (see
// DESIGN.md §3), plus ablations of the design decisions DESIGN.md §4
// calls out. The benchmarks attach the reproduced quantities as custom
// metrics (LPMR1, Hsp, stall%, ...) so `go test -bench . -benchmem`
// regenerates the paper's rows alongside runtime cost.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lpm/internal/core"
	"lpm/internal/explore"
	"lpm/internal/interval"
	"lpm/internal/obs/timeseries"
	"lpm/internal/parallel"
	"lpm/internal/sched"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/dram"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// benchScale keeps full-suite bench time reasonable on one core.
func benchScale() Scale { return QuickScale() }

// BenchmarkFig1CAMATDemo regenerates the paper's Fig. 1 worked example
// (C-AMAT = 1.6 vs AMAT = 3.8).
func BenchmarkFig1CAMATDemo(b *testing.B) {
	var p LayerParams
	for i := 0; i < b.N; i++ {
		p = Fig1()
	}
	b.ReportMetric(p.CAMAT(), "C-AMAT")
	b.ReportMetric(p.AMAT(), "AMAT")
	b.ReportMetric(p.CH(), "C_H")
	b.ReportMetric(p.PAMP(), "pAMP")
}

// BenchmarkTable1ConfigurationsAtoE regenerates Table I: the three LPMRs
// and the stall fraction for each configuration A..E on the bwaves-like
// workload.
func BenchmarkTable1ConfigurationsAtoE(b *testing.B) {
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var m Measurement
			for i := 0; i < b.N; i++ {
				ResetSimCaches() // time the simulation, not a memo hit
				tgt := explore.NewHardwareTarget(explore.DefaultSpace(),
					explore.TableConfigs()[name], trace.MustProfile("410.bwaves"))
				tgt.Warmup = benchScale().Warmup
				tgt.Instructions = benchScale().Window
				var err error
				if m, err = tgt.Measure(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.LPMR1(), "LPMR1")
			b.ReportMetric(m.LPMR2(), "LPMR2")
			b.ReportMetric(m.LPMR3(), "LPMR3")
			b.ReportMetric(100*m.MeasuredStall/m.CPIexe, "stall%CPIexe")
		})
	}
}

// BenchmarkCaseStudyIAlgorithm runs the Fig. 3 LPMR-reduction algorithm
// over the million-point design space at both grains, reporting how many
// simulations the guided search needed and the final state.
func BenchmarkCaseStudyIAlgorithm(b *testing.B) {
	for _, g := range []Grain{CoarseGrain, FineGrain} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			var res CaseStudyIResult
			for i := 0; i < b.N; i++ {
				ResetSimCaches() // time the walk's simulations, not memo hits
				res = mustCaseStudyI(b, g, benchScale())
			}
			b.ReportMetric(float64(res.Evaluations), "simulations")
			b.ReportMetric(res.Algorithm.Final.LPMR1(), "finalLPMR1")
			b.ReportMetric(res.Final.Cost(), "hwCost")
			b.ReportMetric(100*res.Algorithm.Final.MeasuredStall/res.Algorithm.Final.CPIexe, "stall%CPIexe")
		})
	}
}

// benchProfiles are the five benchmarks the paper discusses individually
// in Figs. 6 and 7.
var benchProfiles = []string{"401.bzip2", "403.gcc", "429.mcf", "416.gamess", "433.milc"}

// BenchmarkFig6APC1Sweep regenerates Fig. 6: APC1 of each discussed
// application at every NUCA L1 size.
func BenchmarkFig6APC1Sweep(b *testing.B) {
	for _, name := range benchProfiles {
		name := name
		b.Run(name, func(b *testing.B) {
			var tbl *sched.ProfileTable
			for i := 0; i < b.N; i++ {
				ResetSimCaches() // time the profiling runs, not memo hits
				var err error
				tbl, err = sched.BuildProfileTable(context.Background(), []string{name}, chip.NUCAGroupSizes[:],
					sched.ProfileOptions{Instructions: 12000, Warmup: 30000})
				if err != nil {
					b.Fatal(err)
				}
			}
			for si, sz := range tbl.Sizes {
				b.ReportMetric(tbl.APC1[name][si], "APC1@"+sizeLabel(sz))
			}
		})
	}
}

// BenchmarkFig7APC2Sweep regenerates Fig. 7: APC2 (L2 demand) under the
// same sweep.
func BenchmarkFig7APC2Sweep(b *testing.B) {
	for _, name := range benchProfiles {
		name := name
		b.Run(name, func(b *testing.B) {
			var tbl *sched.ProfileTable
			for i := 0; i < b.N; i++ {
				ResetSimCaches() // time the profiling runs, not memo hits
				var err error
				tbl, err = sched.BuildProfileTable(context.Background(), []string{name}, chip.NUCAGroupSizes[:],
					sched.ProfileOptions{Instructions: 12000, Warmup: 30000})
				if err != nil {
					b.Fatal(err)
				}
			}
			for si, sz := range tbl.Sizes {
				b.ReportMetric(tbl.APC2[name][si], "APC2@"+sizeLabel(sz))
			}
		})
	}
}

func sizeLabel(sz uint64) string {
	switch sz {
	case 4 << 10:
		return "4KB"
	case 16 << 10:
		return "16KB"
	case 32 << 10:
		return "32KB"
	case 64 << 10:
		return "64KB"
	default:
		return "other"
	}
}

// fig8Fixtures builds the profiling table and alone-IPC reference shared
// by the Fig. 8 benchmark variants.
func fig8Fixtures(b *testing.B) (*sched.ProfileTable, []float64, []string) {
	b.Helper()
	names := trace.ProfileNames()
	tbl, err := sched.BuildProfileTable(context.Background(), names, chip.NUCAGroupSizes[:],
		sched.ProfileOptions{Instructions: 10000, Warmup: 25000})
	if err != nil {
		b.Fatal(err)
	}
	alone, err := sched.AloneIPCs(context.Background(), names, chip.NUCAGroupSizes[:],
		sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, alone, names
}

// BenchmarkFig8SchedulingHsp regenerates Fig. 8: the Hsp of the four
// scheduling policies on the heterogeneous 16-core chip.
func BenchmarkFig8SchedulingHsp(b *testing.B) {
	tbl, alone, names := fig8Fixtures(b)
	opt := sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000, AloneIPC: alone}
	for _, policy := range []sched.Scheduler{
		sched.Random{Seed: 1},
		sched.RoundRobin{},
		sched.NUCASA{Table: tbl, TolFrac: 0.10},
		sched.NUCASA{Table: tbl, TolFrac: 0.01},
	} {
		policy := policy
		b.Run(policy.Name(), func(b *testing.B) {
			var hsp float64
			for i := 0; i < b.N; i++ {
				ev, err := sched.Evaluate(context.Background(), policy, names, chip.NUCAGroupSizes[:], opt)
				if err != nil {
					b.Fatal(err)
				}
				hsp = ev.Hsp
			}
			b.ReportMetric(hsp, "Hsp")
		})
	}
}

// BenchmarkIntervalPerception regenerates the interval study: burst
// perception rates at the paper's three sampling scenarios.
func BenchmarkIntervalPerception(b *testing.B) {
	for _, sc := range interval.PaperScenarios() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			var r interval.SimulateResult
			for i := 0; i < b.N; i++ {
				r = interval.Simulate(interval.DefaultProfile(), sc, 100000, 42)
			}
			b.ReportMetric(r.Rate(), "perceived")
			b.ReportMetric(interval.PerceptionRate(interval.DefaultProfile(), sc), "analytic")
		})
	}
}

// ---------------------------------------------------------------------
// Parallel simulation runner: serial-vs-parallel pairs over the same
// batch, memo-cold on every iteration so the runner's fan-out — not the
// result cache — is what gets measured. On an n-core host the parallel
// variants should approach n× the serial throughput; the determinism
// tests pin that the results themselves are bit-identical.

// benchTable1Batch times one full Table1 batch (five design-point
// simulations) per iteration under the given worker bound.
func benchTable1Batch(b *testing.B, workers int) {
	b.Helper()
	defer func() { SetWorkers(0); ResetSimCaches() }()
	SetWorkers(workers)
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		ResetSimCaches()
		rows = mustTable1(b, QuickScale(), false)
	}
	b.ReportMetric(rows[0].M.LPMR1(), "LPMR1(A)")
	b.ReportMetric(float64(parallel.Workers()), "workers")
}

// BenchmarkSerialTable1 is the single-worker baseline.
func BenchmarkSerialTable1(b *testing.B) { benchTable1Batch(b, 1) }

// BenchmarkParallelTable1 fans the batch out over GOMAXPROCS workers.
func BenchmarkParallelTable1(b *testing.B) { benchTable1Batch(b, 0) }

// benchAloneIPCs times the sixteen standalone reference runs of the
// scheduler evaluation per iteration under the given worker bound.
func benchAloneIPCs(b *testing.B, workers int) {
	b.Helper()
	defer func() { SetWorkers(0); ResetSimCaches() }()
	SetWorkers(workers)
	names := trace.ProfileNames()
	opt := sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000}
	var alone []float64
	for i := 0; i < b.N; i++ {
		ResetSimCaches()
		var err error
		alone, err = sched.AloneIPCs(context.Background(), names, chip.NUCAGroupSizes[:], opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(alone[0], "IPC[0]")
	b.ReportMetric(float64(parallel.Workers()), "workers")
}

// BenchmarkSerialAloneIPCs is the single-worker baseline.
func BenchmarkSerialAloneIPCs(b *testing.B) { benchAloneIPCs(b, 1) }

// BenchmarkParallelAloneIPCs fans the runs out over GOMAXPROCS workers.
func BenchmarkParallelAloneIPCs(b *testing.B) { benchAloneIPCs(b, 0) }

// BenchmarkMemoisedTable1 times Table1 when every point is already in
// the shared result memo — the cross-driver revisit cost.
func BenchmarkMemoisedTable1(b *testing.B) {
	defer ResetSimCaches()
	ResetSimCaches()
	mustTable1(b, QuickScale(), false) // warm the memo
	b.ResetTimer()
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		rows = mustTable1(b, QuickScale(), false)
	}
	b.ReportMetric(rows[0].M.LPMR1(), "LPMR1(A)")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4).

// BenchmarkAblationPureVsConventionalMiss contrasts the stall predictions
// of the concurrency-aware model (Eq. 7, pure misses) and the
// conventional AMAT model (Eq. 6) against the simulator's measured stall:
// the pure-miss distinction is what keeps the model honest.
func BenchmarkAblationPureVsConventionalMiss(b *testing.B) {
	var camatErr, amatErr float64
	for i := 0; i < b.N; i++ {
		cfg := chip.SingleCore("410.bwaves")
		gen := trace.NewSynthetic(trace.MustProfile("410.bwaves"))
		cpiExe := chip.MeasureCPIexe(cfg.Cores[0].CPU, gen, 3, 15000)
		ch := chip.New(cfg)
		ch.RunUntilRetired(benchScale().Warmup, 80_000_000)
		ch.ResetCounters()
		ch.Run(benchScale().Window, 80_000_000)
		m := ch.Measure(0, cpiExe)
		l1 := ch.Snapshot().Cores[0].L1
		measured := m.MeasuredStall
		if measured == 0 {
			continue
		}
		camat := m.StallEq7()
		amat := m.Fmem * l1.AMAT() // Eq. (6): no concurrency, no overlap
		camatErr = relErr(camat, measured)
		amatErr = relErr(amat, measured)
	}
	b.ReportMetric(100*camatErr, "CAMATmodelErr%")
	b.ReportMetric(100*amatErr, "AMATmodelErr%")
}

func relErr(pred, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return math.Abs(pred-truth) / truth
}

// BenchmarkAblationCoalescing contrasts MSHR coalescing on/off on a
// streaming workload. The latency paths converge (a waiting secondary
// completes when the primary's fill lands either way), so the cost of
// disabling coalescing is duplicated downstream traffic: secondary
// misses park in the waiting room (MSHRwaits) instead of riding an
// existing MSHR; in this substrate the fill wakes them a cycle later, so
// the timing difference is small — the unit tests pin the traffic dedup.
func BenchmarkAblationCoalescing(b *testing.B) {
	for _, coalesce := range []bool{true, false} {
		coalesce := coalesce
		name := "coalesce"
		if !coalesce {
			name = "no-coalesce"
		}
		b.Run(name, func(b *testing.B) {
			var ipc, fetches float64
			for i := 0; i < b.N; i++ {
				cfg := chip.SingleCore("410.bwaves")
				cfg.Cores[0].L1.Coalesce = coalesce
				ch := chip.New(cfg)
				ch.RunCycles(20000)
				ch.ResetCounters()
				ch.RunCycles(60000)
				r := ch.Snapshot()
				ipc = r.Cores[0].CPU.IPC()
				fetches = float64(r.Cores[0].L1Stats.MSHRWaits)
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(fetches, "MSHRwaits")
		})
	}
}

// reversedTarget flips the optimization order: L2 before L1 — the
// ablation of the paper's "match LPMR1 before LPMR2" rule.
type reversedTarget struct{ *explore.HardwareTarget }

func (r reversedTarget) OptimizeL1() bool { return r.HardwareTarget.OptimizeL2() }
func (r reversedTarget) OptimizeL2() bool { return r.HardwareTarget.OptimizeL1() }

// BenchmarkAblationMatchOrder compares the paper's L1-first matching
// order against an L2-first variant: evaluations spent and final stall.
func BenchmarkAblationMatchOrder(b *testing.B) {
	run := func(reversed bool) (evals int, stallPct float64) {
		ResetSimCaches() // both variants walk overlapping points; keep runs cold
		tgt := explore.NewHardwareTarget(explore.DefaultSpace(),
			explore.TableConfigs()["A"], trace.MustProfile("410.bwaves"))
		tgt.Warmup = benchScale().Warmup
		tgt.Instructions = benchScale().Window
		var t core.Target = tgt
		if reversed {
			t = reversedTarget{tgt}
		}
		res, err := core.Run(context.Background(), t, core.AlgorithmConfig{Grain: core.CoarseGrain, MaxSteps: 32})
		if err != nil {
			b.Fatal(err)
		}
		return tgt.Evaluations(), 100 * res.Final.MeasuredStall / res.Final.CPIexe
	}
	for _, reversed := range []bool{false, true} {
		reversed := reversed
		name := "L1-first(paper)"
		if reversed {
			name = "L2-first(ablation)"
		}
		b.Run(name, func(b *testing.B) {
			var evals int
			var stall float64
			for i := 0; i < b.N; i++ {
				evals, stall = run(reversed)
			}
			b.ReportMetric(float64(evals), "simulations")
			b.ReportMetric(stall, "stall%CPIexe")
		})
	}
}

// BenchmarkAblationSchedulerTwoFold contrasts the full two-fold NUCA-SA
// against a fold-1-only variant whose L2-demand information is erased.
func BenchmarkAblationSchedulerTwoFold(b *testing.B) {
	tbl, alone, names := fig8Fixtures(b)
	// Fold-1-only: zero out APC2 so the L2-contention keys vanish.
	blind := &sched.ProfileTable{
		Sizes: tbl.Sizes, Workloads: tbl.Workloads,
		APC1: tbl.APC1, IPC: tbl.IPC,
		APC2: map[string][]float64{},
	}
	for _, n := range names {
		blind.APC2[n] = make([]float64, len(tbl.Sizes))
	}
	opt := sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000, AloneIPC: alone}
	for _, variant := range []struct {
		name string
		tbl  *sched.ProfileTable
	}{
		{"two-fold(paper)", tbl},
		{"fold1-only(ablation)", blind},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			var hsp float64
			for i := 0; i < b.N; i++ {
				ev, err := sched.Evaluate(context.Background(), sched.NUCASA{Table: variant.tbl, TolFrac: 0.01},
					names, chip.NUCAGroupSizes[:], opt)
				if err != nil {
					b.Fatal(err)
				}
				hsp = ev.Hsp
			}
			b.ReportMetric(hsp, "Hsp")
		})
	}
}

// BenchmarkNoCBandwidth sweeps the interconnect bandwidth of the 16-core
// chip: narrowing the fabric inflates queueing and the L2 C-AMAT seen by
// the analyzers — layered mismatch moving into the interconnect.
func BenchmarkNoCBandwidth(b *testing.B) {
	for _, bw := range []int{1, 4, 16} {
		bw := bw
		b.Run(fmt.Sprintf("bw=%d", bw), func(b *testing.B) {
			var camat2, queueing float64
			for i := 0; i < b.N; i++ {
				gens := make([]trace.Generator, 16)
				for t, nme := range trace.ProfileNames() {
					gens[t] = trace.NewSynthetic(trace.MustProfile(nme))
				}
				cfg := chip.NUCA16(gens)
				n := noc.Default(16)
				n.Bandwidth = bw
				cfg.NoC = &n
				ch := chip.New(cfg)
				ch.RunCycles(30000)
				ch.ResetCounters()
				ch.RunCycles(60000)
				camat2 = ch.L2().Analyzer().Snapshot().CAMAT()
				queueing = ch.Router().Stats().AvgQueueing()
			}
			b.ReportMetric(camat2, "C-AMAT2")
			b.ReportMetric(queueing, "nocQueue")
		})
	}
}

// BenchmarkCoherenceSharing sweeps the true-sharing fraction on a
// coherent 4-program chip: invalidation traffic grows and throughput
// falls — the coherence component of data stall time (§III-A).
func BenchmarkCoherenceSharing(b *testing.B) {
	for _, frac := range []float64{0, 0.1, 0.3} {
		frac := frac
		b.Run(fmt.Sprintf("shared=%.0f%%", 100*frac), func(b *testing.B) {
			var instr, inval float64
			for i := 0; i < b.N; i++ {
				gens := make([]trace.Generator, 16)
				for t := 0; t < 4; t++ {
					p := trace.MustProfile("456.hmmer")
					p.Seed = uint64(t + 1)
					gens[t] = trace.WithSharedRegion(trace.NewSynthetic(p),
						trace.GlobalBase, 8*chip.KB, frac, uint64(t+1))
				}
				cfg := chip.NUCA16(gens)
				cfg.Coherent = true
				cfg.CoherenceInvalLatency = 8
				ch := chip.New(cfg)
				ch.RunCycles(30000)
				ch.ResetCounters()
				ch.RunCycles(60000)
				var total uint64
				for t := 0; t < 4; t++ {
					total += ch.Snapshot().Cores[t].CPU.Instructions
				}
				instr = float64(total)
				inval = float64(ch.Directory().Stats().Invalidations)
			}
			b.ReportMetric(instr, "instrs")
			b.ReportMetric(inval, "invalidations")
		})
	}
}

// BenchmarkChipThroughput measures raw simulator speed: simulated cycles
// per second for the 16-core NUCA chip under full load.
func BenchmarkChipThroughput(b *testing.B) {
	names := trace.ProfileNames()
	gens := make([]trace.Generator, 16)
	for i, n := range names {
		gens[i] = trace.NewSynthetic(trace.MustProfile(n))
	}
	ch := chip.New(chip.NUCA16(gens))
	b.ResetTimer()
	ch.RunCycles(uint64(b.N))
}

// BenchmarkSingleCoreChipTick measures one single-core chip cycle.
func BenchmarkSingleCoreChipTick(b *testing.B) {
	ch := chip.New(chip.SingleCore("403.gcc"))
	b.ResetTimer()
	ch.RunCycles(uint64(b.N))
}

// BenchmarkTimeseriesOffPath is the windowed sampler's disabled fast
// path: no sampler attached, so each chip cycle pays exactly one nil
// check over the serial baseline (BenchmarkSingleCoreChipTick). The two
// must stay within 1% of each other — compare with benchstat after any
// change to the Tick tail.
func BenchmarkTimeseriesOffPath(b *testing.B) {
	ch := chip.New(chip.SingleCore("403.gcc"))
	b.ResetTimer()
	ch.RunCycles(uint64(b.N))
}

// BenchmarkTimeseriesAttached is the full on-path cost: per-cycle stall
// classification and occupancy sums, plus a window collection every
// 2048 cycles.
func BenchmarkTimeseriesAttached(b *testing.B) {
	ch := chip.New(chip.SingleCore("403.gcc"))
	s := ch.EnableTimeseries(timeseries.Config{Width: 2048, CPIexe: 0.5})
	b.ResetTimer()
	ch.RunCycles(uint64(b.N))
	b.StopTimer()
	ch.FlushTimeseries()
	b.ReportMetric(float64(s.Windows()), "windows")
}

// BenchmarkDRAMRequest measures the memory controller's per-request cost.
func BenchmarkDRAMRequest(b *testing.B) {
	d := dram.New(dram.DDR3("bench"))
	var cy uint64
	for i := 0; i < b.N; i++ {
		for !d.Request(cy, 0, uint64(i*97), false, func(uint64) {}) {
			cy++
			d.Tick(cy)
		}
		cy++
		d.Tick(cy)
	}
}

// BenchmarkCacheHit measures the cache's steady-state hit path.
func BenchmarkCacheHit(b *testing.B) {
	cfg := cache.Config{
		Name: "bench", Size: 32 << 10, BlockSize: 64, Assoc: 4,
		HitLatency: 3, Ports: 2, Banks: 4, MSHRs: 8, Coalesce: true,
	}
	c := cache.New(cfg)
	low := &dram.Fixed{Latency: 10}
	c.SetLower(low)
	var cy uint64
	// Warm one block.
	c.Access(cy, 0, false, nil)
	for i := 0; i < 50; i++ {
		cy++
		c.Tick(cy)
		low.Tick(cy)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cy++
		c.Access(cy, 0, false, nil)
		c.Tick(cy)
		low.Tick(cy)
	}
}

// BenchmarkChipCycle measures whole-chip per-cycle cost in steady
// state; run with -benchmem — the steady-state engine must not
// allocate.
func BenchmarkChipCycle(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "stepped"
		if ff {
			name = "fastforward"
		}
		b.Run(name, func(b *testing.B) {
			ch := NewChip(SingleCore("429.mcf"))
			ch.SetFastForward(ff)
			ch.RunCycles(20000)
			b.ReportAllocs()
			b.ResetTimer()
			ch.RunCycles(uint64(b.N))
		})
	}
}

// bzip2Config is the engine_cpu chip of BENCHMARK.json (bench/engine.go):
// 401.bzip2 on the one-core NUCA platform with a 64 KB L1.
func bzip2Config() chip.Config {
	return chip.NUCASingle(trace.NewSynthetic(trace.MustProfile("401.bzip2")), 64*chip.KB)
}

// cmpPrograms is the bench's engine_cmp mix: four programs, four copies
// each, one per core of the Fig. 5 chip.
var cmpPrograms = [4]string{"401.bzip2", "429.mcf", "433.milc", "403.gcc"}

// cmpConfig is the engine_cmp chip of BENCHMARK.json (bench/engine.go):
// NUCA16 behind the default NoC and the MSI directory, with 5% of every
// core's accesses falling into one 256 KB region all sixteen share.
func cmpConfig() chip.Config {
	gens := make([]trace.Generator, 16)
	for i := range gens {
		prof := trace.MustProfile(cmpPrograms[i%4])
		prof.Seed += uint64(i)
		gens[i] = trace.NewSynthetic(prof)
	}
	cfg := chip.NUCA16(gens)
	router := noc.Default(16)
	cfg.NoC = &router
	cfg.Coherent = true
	cfg.CoherenceInvalLatency = 8
	for i := range cfg.Cores {
		cfg.Cores[i].Workload = trace.WithSharedRegion(cfg.Cores[i].Workload,
			trace.GlobalBase, 256*chip.KB, 0.05, uint64(i)+1)
	}
	return cfg
}

// TestDirectoryOccupancyBounded: the directory forgets a block once no L1
// holds or is fetching it, so on the engine_cmp chip its occupancy stays
// within what the sixteen L1s can hold — their lines plus their MSHRs —
// instead of growing with every block ever touched.
func TestDirectoryOccupancyBounded(t *testing.T) {
	t.Parallel()
	cfg := cmpConfig()
	bound := 0
	for _, slot := range cfg.Cores {
		bound += int(slot.L1.Size/slot.L1.BlockSize) + slot.L1.MSHRs
	}
	ch := NewChip(cfg)
	for sample := 1; sample <= 20; sample++ {
		ch.RunCycles(50_000)
		if n := ch.Directory().Stats().TrackedBlocks; n > bound {
			t.Fatalf("directory tracks %d blocks after %d cycles; the L1s hold at most %d", n, ch.Now(), bound)
		}
	}
	if n := ch.Directory().Stats().TrackedBlocks; n < bound/8 {
		t.Fatalf("directory tracks only %d blocks: the chip is not sharing the hierarchy", n)
	}
}

// BenchmarkCMPChipCycle measures the per-cycle cost of the 16-core
// coherent chip behind Fig. 6-8 (the engine_cmp shape), stepped and
// fast-forwarding; -benchmem must read 0 allocs/op.
func BenchmarkCMPChipCycle(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "stepped"
		if ff {
			name = "fastforward"
		}
		b.Run(name, func(b *testing.B) {
			ch := NewChip(cmpConfig())
			ch.SetFastForward(ff)
			ch.RunCycles(60000)
			b.ReportAllocs()
			b.ResetTimer()
			ch.RunCycles(uint64(b.N))
		})
	}
}

// TestSteadyStateZeroAlloc pins the allocation profile the per-cycle
// optimisations bought: once warmed, neither the stepped nor the
// fast-forwarding engine allocates per cycle (MSHRs, fill closures and
// analyzer events all come from freelists), and the functional tier
// does not allocate per round. The bzip2 cases are the cache-resident
// one-core NUCA platform, where the core does most of a cycle; the cmp
// cases are the 16-core coherent chip, the only shape that exercises the
// NoC's response hops and source queues and the directory's entries.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		mk   func() *Chip
		step func(*Chip)
	}{
		{name: "stepped", mk: func() *Chip {
			ch := NewChip(SingleCore("429.mcf"))
			ch.SetFastForward(false)
			ch.RunCycles(20000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
		{name: "fastforward", mk: func() *Chip {
			ch := NewChip(SingleCore("429.mcf"))
			ch.RunCycles(20000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
		{name: "functional", mk: func() *Chip {
			ch := NewChip(SingleCore("429.mcf"))
			ch.SetTier(chip.TierFunctional)
			if err := ch.RunFunctional(20000); err != nil {
				t.Fatal(err)
			}
			return ch
		}, step: func(ch *Chip) { _ = ch.RunFunctional(100) }},
		{name: "bzip2/stepped", mk: func() *Chip {
			ch := NewChip(bzip2Config())
			ch.SetFastForward(false)
			ch.RunCycles(20000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
		{name: "bzip2/fastforward", mk: func() *Chip {
			ch := NewChip(bzip2Config())
			ch.RunCycles(20000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
		{name: "cmp/stepped", mk: func() *Chip {
			ch := NewChip(cmpConfig())
			ch.SetFastForward(false)
			ch.RunCycles(60000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
		{name: "cmp/fastforward", mk: func() *Chip {
			ch := NewChip(cmpConfig())
			ch.RunCycles(60000)
			return ch
		}, step: func(ch *Chip) { ch.RunCycles(100) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ch := tc.mk()
			if avg := testing.AllocsPerRun(20, func() { tc.step(ch) }); avg > 0 {
				t.Fatalf("steady-state %s engine allocates %.2f times per 100 cycles; want 0", tc.name, avg)
			}
		})
	}
	// The trace generator refills a 64-instruction block inside Next; at
	// 100 instructions a run every run crosses a refill, which the slow
	// 429.mcf cycles above need not.
	t.Run("generator-refill", func(t *testing.T) {
		g := trace.NewSynthetic(trace.MustProfile("429.mcf"))
		if avg := testing.AllocsPerRun(20, func() {
			for i := 0; i < 100; i++ {
				g.Next()
			}
		}); avg > 0 {
			t.Fatalf("trace generator allocates %.2f times per 100 instructions; want 0", avg)
		}
	})
}
