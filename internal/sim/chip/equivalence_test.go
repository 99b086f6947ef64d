package chip_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/coherence"
	"lpm/internal/sim/dram"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// Fast-forward equivalence properties: a run with quiescent-cycle
// fast-forward enabled must be bit-identical — every counter of every
// component, and every timeline window — to the same run stepped cycle
// by cycle. The suite sweeps the Table I workloads on the single-core
// platform, the multicore NUCA geometries (NoC, L3, coherence
// included), split measurement windows, and mid-run toggling, all with
// the watchdog and a cancellation context armed the way the real
// drivers arm them.

// equivRun executes warm-up plus a measured window on a freshly built
// config and returns the full counter snapshot and timeline series. A
// builder, not a value: a Config embeds stateful trace generators, so
// each run must construct its own. splits > 1 divides the measured
// window into that many Run calls at uneven boundaries, the shape a
// checkpoint/resume or observation-driven driver produces.
func equivRun(t *testing.T, mk func() chip.Config, ff bool, warm, window uint64, splits int) (chip.Report, timeseries.Series) {
	t.Helper()
	ch := chip.New(mk())
	ch.SetFastForward(ff)
	ch.SetContext(context.Background())
	ch.SetWatchdog(2_000_000)
	budget := (warm + window) * 600
	ch.RunUntilRetired(warm, budget)
	ch.ResetCounters()
	s := ch.EnableTimeseries(timeseries.Config{Width: 2048, MaxWindows: 64})
	remaining := window
	for i := splits; i >= 1; i-- {
		part := remaining / uint64(i)
		if i > 1 {
			part = part/3 + 1 // uneven boundaries, never zero
		}
		ch.Run(part, budget)
		remaining -= part
	}
	ch.FlushTimeseries()
	if err := ch.Err(); err != nil {
		t.Fatalf("run error (ff=%v): %v", ff, err)
	}
	return ch.Snapshot(), s.Series()
}

// checkEquiv runs the configuration both ways and fails on any
// divergence.
func checkEquiv(t *testing.T, mk func() chip.Config, warm, window uint64, splits int) {
	t.Helper()
	a, sa := equivRun(t, mk, true, warm, window, splits)
	b, sb := equivRun(t, mk, false, warm, window, splits)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot diverged\nff:   %+v\nstep: %+v", a, b)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("timeline diverged\nff:   %+v\nstep: %+v", sa, sb)
	}
}

// TestEquivTable1Workloads: every built-in Table I workload profile on
// the single-core platform.
func TestEquivTable1Workloads(t *testing.T) {
	t.Parallel()
	for _, p := range trace.ProfileNames() {
		p := p
		t.Run(p, func(t *testing.T) {
			t.Parallel()
			checkEquiv(t, func() chip.Config { return chip.SingleCore(p) }, 20000, 5000, 1)
		})
	}
}

// nuca4 builds a 16-core chip with four active cores on mixed
// workloads; variant switches on the optional subsystems.
func nuca4(nocOn, l3On, coherent bool) chip.Config {
	names := []string{"410.bwaves", "429.mcf", "456.hmmer", "403.gcc"}
	gens := make([]trace.Generator, 16)
	for i, n := range names {
		prof := trace.MustProfile(n)
		prof.Seed = uint64(i + 7)
		gens[i*4] = trace.NewSynthetic(prof) // one per L1-size group
	}
	cfg := chip.NUCA16(gens)
	if nocOn {
		n := noc.Default(16)
		cfg.NoC = &n
	}
	if l3On {
		l3 := chip.DefaultL2("L3", 4*chip.MB)
		cfg.L3 = &l3
	}
	if coherent {
		cfg.Coherent = true
		cfg.CoherenceInvalLatency = 8
	}
	return cfg
}

// TestEquivMulticoreVariants: the NUCA platform with each optional
// subsystem in the fast-forward schedule engaged.
func TestEquivMulticoreVariants(t *testing.T) {
	t.Parallel()
	variants := []struct {
		name              string
		noc, l3, coherent bool
		warm, window      uint64
	}{
		{name: "base", warm: 8000, window: 3000},
		{name: "noc", noc: true, warm: 8000, window: 3000},
		{name: "noc-l3", noc: true, l3: true, warm: 8000, window: 3000},
		{name: "coherent", coherent: true, warm: 8000, window: 3000},
		{name: "noc-l3-coherent", noc: true, l3: true, coherent: true, warm: 8000, window: 3000},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			checkEquiv(t, func() chip.Config { return nuca4(v.noc, v.l3, v.coherent) }, v.warm, v.window, 1)
		})
	}
}

// TestEquivSplitWindows: the measured window delivered across several
// Run calls — the checkpoint/resume and timeline-driven shape. Jump
// decisions depend on run-loop entry state, so boundaries must not
// perturb counters.
func TestEquivSplitWindows(t *testing.T) {
	t.Parallel()
	for _, splits := range []int{2, 5} {
		splits := splits
		t.Run(fmt.Sprintf("splits=%d", splits), func(t *testing.T) {
			t.Parallel()
			checkEquiv(t, func() chip.Config { return chip.SingleCore("429.mcf") }, 20000, 5000, splits)
		})
	}
}

// TestEquivToggleMidRun: fast-forward for the first half of the window
// and stepping for the second must equal stepping throughout — a jump
// leaves the exact microstate stepping would have reached.
func TestEquivToggleMidRun(t *testing.T) {
	t.Parallel()
	const warm, window = 20000, 5000

	run := func(toggle bool) (chip.Report, timeseries.Series) {
		ch := chip.New(chip.SingleCore("433.milc"))
		ch.SetFastForward(toggle)
		ch.RunUntilRetired(warm, (warm+window)*600)
		ch.ResetCounters()
		s := ch.EnableTimeseries(timeseries.Config{Width: 2048, MaxWindows: 64})
		ch.Run(window/2, (warm+window)*600)
		ch.SetFastForward(false)
		ch.Run(window-window/2, (warm+window)*600)
		ch.FlushTimeseries()
		return ch.Snapshot(), s.Series()
	}
	a, sa := run(true)
	b, sb := run(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot diverged after mid-run toggle\nff-half: %+v\nstepped: %+v", a, b)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("timeline diverged after mid-run toggle")
	}
}

// hierarchyKnobs are the memory-hierarchy parameters the head-checked
// queues, the retry gate and the DRAM stall stamp rely on being
// arbitrary: every latency that orders a queue, every bound that makes a
// layer refuse. TestEquivBackpressure pins one hostile setting;
// FuzzHierarchyBackpressure searches the rest.
type hierarchyKnobs struct {
	cores                              int // active cores, coherent, sharing a region
	l1Hit, l1Ports, l1MSHRs, l1Targets int
	l2Hit, l2Ports, l2MSHRs, l2Input   int
	nocLat, nocBW, nocDepth            int
	banks, dramQueue                   int
	tCL, tRCD, tRP, tBurst             int
	invalLat                           uint64
	fcfs                               bool
	seed                               uint64
}

// config builds the chip: knobs.cores NUCA cores on mixed programs behind
// the directory and the NoC, a fifth of their accesses falling into one
// small shared region so stores invalidate and write fetches are delayed.
func (k hierarchyKnobs) config() chip.Config {
	names := []string{"429.mcf", "433.milc", "403.gcc", "410.bwaves"}
	gens := make([]trace.Generator, k.cores)
	for i := range gens {
		prof := trace.MustProfile(names[i%len(names)])
		prof.Seed += k.seed*16 + uint64(i)
		gens[i] = trace.NewSynthetic(prof)
	}
	cfg := chip.NUCA16(gens)
	for i := range cfg.Cores {
		l1 := &cfg.Cores[i].L1
		l1.HitLatency, l1.Ports, l1.MSHRs, l1.MSHRTargets = k.l1Hit, k.l1Ports, k.l1MSHRs, k.l1Targets
		if i < k.cores {
			cfg.Cores[i].Workload = trace.WithSharedRegion(cfg.Cores[i].Workload,
				trace.GlobalBase, 8*chip.KB, 0.2, k.seed+uint64(i)+1)
		}
	}
	cfg.L2.HitLatency, cfg.L2.Ports, cfg.L2.MSHRs, cfg.L2.InputQueue = k.l2Hit, k.l2Ports, k.l2MSHRs, k.l2Input
	cfg.NoC = &noc.Config{Name: "noc", Latency: k.nocLat, Bandwidth: k.nocBW, QueueDepth: k.nocDepth, Sources: 16}
	cfg.Coherent, cfg.CoherenceInvalLatency = true, k.invalLat
	cfg.Mem.BanksPerChannel, cfg.Mem.QueueDepth = k.banks, k.dramQueue
	cfg.Mem.TCL, cfg.Mem.TRCD, cfg.Mem.TRP, cfg.Mem.TBurst = k.tCL, k.tRCD, k.tRP, k.tBurst
	cfg.Mem.Channels = 2
	if k.fcfs {
		cfg.Mem.Scheduler = dram.FCFS
	}
	return cfg
}

// hierarchyStats is every Stats struct on the chip: the Report plus the
// interconnect and directory counters Snapshot leaves out.
type hierarchyStats struct {
	Report chip.Report
	NoC    noc.Stats
	Dir    coherence.Stats
}

func statsOf(ch *chip.Chip) hierarchyStats {
	return hierarchyStats{ch.Snapshot(), ch.Router().Stats(), ch.Directory().Stats()}
}

// timeOrdered fails unless the live part of a head-indexed queue —
// field[head:] of the struct s — is sorted by its key field. The queues
// are unexported state of other packages; reflection reads them without
// widening any API.
func timeOrdered(t *testing.T, what string, s reflect.Value, field, head, key string) {
	t.Helper()
	q := s.FieldByName(field)
	for i := int(s.FieldByName(head).Int()) + 1; i < q.Len(); i++ {
		if q.Index(i).FieldByName(key).Uint() < q.Index(i-1).FieldByName(key).Uint() {
			t.Fatalf("%s: %s[%d] is due before its predecessor", what, field, i)
		}
	}
}

// assertTimeOrdered checks the ordering invariant of every head-checked
// queue on the chip (DESIGN.md section 9).
func assertTimeOrdered(t *testing.T, ch *chip.Chip) {
	t.Helper()
	for i := range ch.Config().Cores {
		timeOrdered(t, fmt.Sprintf("L1 %d", i), reflect.ValueOf(ch.L1(i)).Elem(), "pipe", "pipeHead", "ready")
	}
	timeOrdered(t, "L2", reflect.ValueOf(ch.L2()).Elem(), "pipe", "pipeHead", "ready")
	router := reflect.ValueOf(ch.Router()).Elem()
	timeOrdered(t, "router", router.FieldByName("inflight"), "buf", "head", "readyAt")
	timeOrdered(t, "router", router.FieldByName("resp"), "buf", "head", "readyAt")
	timeOrdered(t, "directory", reflect.ValueOf(ch.Directory()).Elem(), "delayed", "delayedHead", "at")
}

// checkHierarchyEquiv steps one chip cycle by cycle and fast-forwards its
// twin, in chunks, requiring identical Stats everywhere and time-ordered
// queues at every chunk boundary. It returns the final stats.
func checkHierarchyEquiv(t *testing.T, k hierarchyKnobs, chunks int, chunk uint64) hierarchyStats {
	t.Helper()
	fast, step := chip.New(k.config()), chip.New(k.config())
	step.SetFastForward(false)
	for i := 0; i < chunks; i++ {
		fast.RunCycles(chunk)
		step.RunCycles(chunk)
		if a, b := statsOf(fast), statsOf(step); !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: stats diverged by cycle %d\nff:   %+v\nstep: %+v", k, fast.Now(), a, b)
		}
		assertTimeOrdered(t, fast)
		assertTimeOrdered(t, step)
		if i == chunks/2 {
			fast.ResetCounters()
			step.ResetCounters()
		}
	}
	return statsOf(step)
}

// TestEquivBackpressure: stepped ≡ fast-forward on a chip where every
// refuse-and-retry path is hot — two-deep NoC and DRAM queues, a
// four-entry L2 input queue, two MSHRs per L1 — with the ordering
// invariants of the time-ordered queues asserted along the way.
func TestEquivBackpressure(t *testing.T) {
	t.Parallel()
	k := hierarchyKnobs{
		cores: 8,
		l1Hit: 3, l1Ports: 2, l1MSHRs: 2, l1Targets: 2,
		l2Hit: 30, l2Ports: 1, l2MSHRs: 64, l2Input: 4,
		nocLat: 6, nocBW: 4, nocDepth: 2,
		banks: 8, dramQueue: 2,
		tCL: 33, tRCD: 33, tRP: 33, tBurst: 8,
		invalLat: 8,
	}
	st := checkHierarchyEquiv(t, k, 150, 197)
	var l1 cache.Stats
	for _, c := range st.Report.Cores {
		l1.MSHRWaits += c.L1Stats.MSHRWaits
	}
	if st.NoC.Rejected == 0 || st.Report.L2Stats.Rejected == 0 || st.Report.Mem.Rejected == 0 ||
		l1.MSHRWaits == 0 || st.Dir.Invalidations == 0 {
		t.Fatalf("a back-pressure path stayed cold: noc rejected %d, L2 rejected %d, DRAM rejected %d, L1 MSHR waits %d, invalidations %d",
			st.NoC.Rejected, st.Report.L2Stats.Rejected, st.Report.Mem.Rejected, l1.MSHRWaits, st.Dir.Invalidations)
	}
}
