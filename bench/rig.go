package main

import (
	"fmt"
	"time"

	"lpm/internal/analyzer"
	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// The sampled stopwatch rig times the engine's layers in situ without
// touching the engine: it builds the chip with chip.New, takes it apart
// through the public accessors and ticks the components itself, in the
// hierarchy order chip.Tick documents (cores, L1s, directory, NoC, L2,
// L3, DRAM). On a seeded pseudo-random subset of cycles it puts ONE
// time.Now pair around one layer's ticks; which layer rotates. Only
// one pair per sampled cycle: a pair per component per cycle on the
// 16-core chip overstates its cycle by ~40%.
//
// The stopwatch is neither free nor constant. A clock read costs about
// as much as ticking a quiet layer, and it serialises the pipeline, so
// the host stops overlapping its own cache misses across the ends of
// the timed region. A calibration loop sees only the first effect, and
// constants taken from one put the sum of the layers anywhere from 0.8
// to 1.4 of the cycle they make up. So the overhead o of a timed region
// is solved in situ, from two things the rig measures anyway: S(j), the
// mean reading of layer j alone, and R, what one cycle costs the rig
// when nothing is timed (its slice wall-clock less the stopwatch pairs,
// over the slice's cycles). Every S(j) = t(j) + o, and the self times
// t(j) of the L layers make up the cycle, so
//
//	o = (sum S(j) - R) / L,    t(j) = S(j) - o.
//
// The one assumption is that a timed region costs the same whichever
// layer is in it. chip.rig_closure then compares R with what
// chip.RunCycles stepped takes per cycle: it checks that the rig steps
// the chip the way the chip steps itself.

// Rig layers, in tick order. The trace layer is a child of cpu: its
// time is measured inside dedicated core ticks and subtracted.
const (
	layerCPU = iota
	layerL1
	layerDir
	layerNoC
	layerL2
	layerMem
	layerTrace
	numLayers
)

var layerNames = [numLayers]string{"cpu", "cache.l1", "coherence", "noc", "cache.l2", "dram", "trace"}

// timedGen wraps a core's generator — CoreSlot.Workload is an
// interface, so the wrapper is public API — and times Next only while
// the rig asks for it.
type timedGen struct {
	trace.Generator
	on    bool
	ns    int64
	calls int64
}

func (g *timedGen) Next() trace.Instr {
	if !g.on {
		return g.Generator.Next()
	}
	//lint:ignore fabricproto the stopwatch wraps generators of chips this process builds; no granule spec can carry it
	start := time.Now()
	in := g.Generator.Next()
	//lint:ignore fabricproto as above: never reached from a granule handler
	g.ns += int64(time.Since(start))
	g.calls++
	return in
}

// rig is a chip stepped from outside. With L layers present a sampled
// cycle is of one of L+1 kinds: kind j < L times S(j); kind L times
// nothing itself but turns the generators' stopwatches on for the
// cycle.
type rig struct {
	parts
	gens    []*timedGen
	present []int // layers this chip has, in tick order
	mask    uint64
	cycle   uint64
	rng     uint64
	rot     int

	acc rawSlice // readings of the current slice
}

// rawSlice is one slice's stopwatch readings: per kind the summed
// interval and sample count, then the generator pairs.
type rawSlice struct {
	sum, n    []int64
	genNS     int64
	genCalls  int64
	genCycles int64
}

// newRig builds and warms the workload's chip with timed generators.
func newRig(shape engineShape, seed uint64) *rig {
	r := &rig{rng: seed*0x9e3779b97f4a7c15 + 1, mask: shape.sampleMask()}
	ch := shape.warm(seed, func(_ int, g trace.Generator) trace.Generator {
		tg := &timedGen{Generator: g}
		r.gens = append(r.gens, tg)
		return tg
	})
	r.parts = takeApart(ch)
	r.cycle = ch.Now()
	r.present = []int{layerCPU, layerL1}
	if r.dir != nil {
		r.present = append(r.present, layerDir)
	}
	if r.router != nil {
		r.present = append(r.present, layerNoC)
	}
	r.present = append(r.present, layerL2, layerMem)
	r.takeSlice()
	return r
}

// sampleMask selects the timed cycles: one in 32 on the one-core chip,
// where a stopwatch pair costs a fifth of a cycle; one in 4 on the
// 16-core chip, whose cycle is thirty times longer and whose slices
// hold a tenth of the cycles.
func (s engineShape) sampleMask() uint64 {
	if s.cmp {
		return 3
	}
	return 31
}

// tickLayer ticks one layer's components for cycle c.
func (r *rig) tickLayer(layer int, c uint64) {
	switch layer {
	case layerCPU:
		for _, core := range r.cores {
			core.Tick(c)
		}
	case layerL1:
		for _, l1 := range r.l1s {
			l1.Tick(c)
		}
	case layerDir:
		r.dir.Tick(c)
	case layerNoC:
		r.router.Tick(c)
	case layerL2:
		r.l2.Tick(c)
		if r.l3 != nil {
			r.l3.Tick(c)
		}
	case layerMem:
		r.mem.Tick(c)
	}
}

// tickRange ticks present[from:to] for cycle c.
func (r *rig) tickRange(from, to int, c uint64) {
	for _, l := range r.present[from:to] {
		r.tickLayer(l, c)
	}
}

// step advances the chip n cycles.
func (r *rig) step(n uint64) {
	L := len(r.present)
	for i := uint64(0); i < n; i++ {
		r.cycle++
		c := r.cycle
		// xorshift64: the sampled subset is seeded, not periodic, so it
		// cannot lock onto a periodic behaviour of the workload.
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		if r.rng&r.mask != 0 {
			r.tickRange(0, L, c)
			continue
		}
		kind := r.rot % (L + 1)
		r.rot++
		switch {
		case kind < L: // S(kind)
			r.tickRange(0, kind, c)
			start := time.Now()
			r.tickLayer(r.present[kind], c)
			r.acc.sum[kind] += int64(time.Since(start))
			r.tickRange(kind+1, L, c)
		default: // generators timed, cycle untimed
			for _, g := range r.gens {
				g.on = true
			}
			r.tickLayer(layerCPU, c)
			for _, g := range r.gens {
				g.on = false
				r.acc.genNS += g.ns
				r.acc.genCalls += g.calls
				g.ns, g.calls = 0, 0
			}
			r.acc.genCycles++
			r.tickRange(1, L, c)
		}
		r.acc.n[kind]++
	}
}

// takeSlice returns the accumulators and starts a fresh set.
func (r *rig) takeSlice() rawSlice {
	s := r.acc
	kinds := len(r.present) + 1
	r.acc = rawSlice{sum: make([]int64, kinds), n: make([]int64, kinds)}
	return s
}

// pairWall measures, in a tight loop, the wall-clock one stopwatch
// pair takes — what each pair adds to the rig's slice. It is a floor,
// so the best of several batches is the estimate.
func pairWall() float64 {
	const pairs = 50_000
	best := 0.0
	for rep := 0; rep < 7; rep++ {
		begin := time.Now()
		for i := 0; i < pairs; i++ {
			start := time.Now()
			_ = time.Since(start)
		}
		per := float64(time.Since(begin)) / pairs
		if rep == 0 || per < best {
			best = per
		}
	}
	return best
}

// selfTimes turns one slice's readings into each layer's self time per
// chip cycle, the rig's untimed cycle R, the overhead o of a timed
// region and the mean time of one generator call. wallNS is the slice's
// wall-clock, cycles its length, pair the wall-clock of one stopwatch
// pair. ok is false when some kind went unsampled in the slice.
func (s rawSlice) selfTimes(present []int, wallNS, cycles, pair float64) (ns [numLayers]float64, r, o, nextNS float64, ok bool) {
	L := len(present)
	var pairs, single float64
	for j := range present {
		if s.n[j] == 0 {
			return ns, 0, 0, 0, false
		}
		pairs += float64(s.n[j])
		single += float64(s.sum[j]) / float64(s.n[j])
	}
	if s.genCalls == 0 || s.genCycles == 0 {
		return ns, 0, 0, 0, false
	}
	pairs += float64(s.genCalls)
	r = (wallNS - pairs*pair) / cycles
	o = (single - r) / float64(L)
	for j, l := range present {
		ns[l] = float64(s.sum[j])/float64(s.n[j]) - o
	}
	// A generator pair is a region timed alone and carries the same o.
	nextNS = float64(s.genNS)/float64(s.genCalls) - o
	ns[layerTrace] = nextNS * float64(s.genCalls) / float64(s.genCycles)
	ns[layerCPU] -= ns[layerTrace]
	return ns, r, o, nextNS, true
}

// runEngineTraced is the traced pass of an engine workload. Four chips
// with identical inputs advance slice by slice in turn — default
// fast-forward, stepped, the rig, and fast-forward with obs and
// timeseries on — so a burst of host noise lands on all four variants
// instead of biasing one ratio.
func runEngineTraced(rc *runCtx, shape engineShape) error {
	res := rc.res
	ff := shape.warm(rc.seed, nil)
	stepped := shape.warm(rc.seed, nil)
	stepped.SetFastForward(false)
	rg := newRig(shape, rc.seed)
	pair := pairWall()
	observed := shape.warm(rc.seed, nil)
	observed.EnableObs()
	sampler := observed.EnableTimeseries(timeseries.Config{})

	type round struct {
		id         string
		start, end time.Time // of the rig's slice
		raw        rawSlice
	}
	var ffNS, steppedNS, rigNS, obsNS []float64
	var rounds []round
	cyc := float64(shape.sliceCycles)
	// timeSlice runs one variant's slice and returns its ns per cycle.
	timeSlice := func(name, id string, fn func()) float64 {
		start := time.Now()
		fn()
		end := time.Now()
		rc.spans.add(name, id, "", start, end, 0)
		return float64(end.Sub(start)) / cyc
	}
	for deadline := time.Now().Add(rc.budget(0.7)); time.Now().Before(deadline) || len(rounds) < 4; {
		id := fmt.Sprintf("slice-%d", len(rounds))
		ffNS = append(ffNS, timeSlice("chip.fastforward", id, func() { ff.RunCycles(shape.sliceCycles) }))
		steppedNS = append(steppedNS, timeSlice("chip.stepped", id, func() { stepped.RunCycles(shape.sliceCycles) }))
		r := round{id: id, start: time.Now()}
		rg.step(shape.sliceCycles)
		r.end = time.Now()
		r.raw = rg.takeSlice()
		rigNS = append(rigNS, float64(r.end.Sub(r.start))/cyc)
		rounds = append(rounds, r)
		rc.spans.add("chip.rig", id, "", r.start, r.end, 0)
		obsNS = append(obsNS, timeSlice("chip.observed", id, func() { observed.RunCycles(shape.sliceCycles) }))
	}
	n := len(rounds)
	res.ops(n)

	// Identity: stepped, fast-forward, the rig and the observed chip ran
	// the same inputs for the same cycles; every simulated count must
	// agree exactly, or none of the timings describes the same work.
	want := takeApart(stepped).stats()
	for _, v := range []struct {
		name string
		got  chipStats
	}{{"fast-forward", takeApart(ff).stats()}, {"stopwatch rig", rg.stats()}, {"obs-enabled", takeApart(observed).stats()}} {
		if d := want.diff(v.got); d != "" {
			res.fail("%s and stepped statistics differ after %d slices: %s", v.name, n, d)
		}
	}
	rc.checkShared(shape, want)

	// chip
	res.setMedian("chip.stepped_ns_per_cycle", steppedNS)
	steppedPerCycle := median(steppedNS)
	res.set("chip.mcycles_per_s", 1e3/median(ffNS))
	res.set("chip.ff_speedup", median(steppedNS)/median(ffNS))
	res.set("chip.trace_overhead_frac", median(rigNS)/median(steppedNS)-1)
	res.set("obs.enable_overhead_frac", median(obsNS)/median(ffNS)-1)

	// Layer self times: median over slices of each slice's mean, so a
	// preempted sample spoils one slice, not the figure. Shares are of
	// the untraced stepped cycle — the rig cannot fast-forward from
	// outside, so chip.ff_speedup is reported beside them.
	perLayerNS := make([][]float64, numLayers)
	var next, rigCycle, overhead []float64
	spanLayers := append(append([]int(nil), rg.present...), layerTrace)
	for _, r := range rounds {
		ns, cycle, o, nextNS, ok := r.raw.selfTimes(rg.present, float64(r.end.Sub(r.start)), cyc, pair)
		if !ok {
			continue
		}
		next = append(next, nextNS)
		rigCycle = append(rigCycle, cycle)
		overhead = append(overhead, o)
		for _, l := range spanLayers {
			perLayerNS[l] = append(perLayerNS[l], ns[l])
			// One span per layer per slice: the layer's self time over
			// the slice's cycles, laid from the rig slice's start.
			rc.spans.add("rig."+layerNames[l], r.id, "chip.rig", r.start,
				r.start.Add(time.Duration(max(0, ns[l])*cyc)), int(r.raw.n[0]))
		}
	}
	if len(next) == 0 {
		res.fail("the stopwatch rig sampled no complete slice")
	}
	emit := func(l int, tick, share string) {
		// A layer that costs less than the differences resolve can read
		// slightly negative; it is reported as 0.
		ns := 0.0
		if len(perLayerNS[l]) > 0 {
			ns = max(0, median(perLayerNS[l]))
		}
		if tick != "" {
			res.set(tick, ns)
		}
		res.set(share, ns/steppedPerCycle)
	}
	emit(layerCPU, "cpu.tick_ns", "cpu.share")
	emit(layerL1, "cache.l1_tick_ns", "cache.l1_share")
	emit(layerL2, "cache.l2_tick_ns", "cache.l2_share")
	emit(layerMem, "dram.tick_ns", "dram.share")
	emit(layerTrace, "", "trace.share")
	if shape.cmp {
		emit(layerNoC, "noc.tick_ns", "noc.share")
		emit(layerDir, "coherence.tick_ns", "coherence.share")
	}
	res.set("chip.rig_closure", median(rigCycle)/steppedPerCycle)
	res.labels["chip.rig_closure"] = fmt.Sprintf("a timed region costs %.0f ns, solved in situ", median(overhead))
	res.setMedian("trace.next_ns", next)

	// Exact simulated counts of the measured interval (warm-up included:
	// counters are cumulative and every variant warmed identically).
	var instr, cycles, l1acc, l1miss, wb uint64
	for _, c := range want.cores {
		instr += c.Instructions
		cycles += c.Cycles
	}
	for _, l1 := range want.l1 {
		l1acc += l1.Accesses
		l1miss += l1.Misses
		wb += l1.Writebacks
	}
	res.set("chip.sim_instr", float64(instr))
	res.set("cpu.ipc", float64(instr)/float64(cycles))
	res.set("cache.l1_accesses", float64(l1acc))
	res.set("cache.l1_misses", float64(l1miss))
	res.set("cache.l2_accesses", float64(want.l2.Accesses))
	res.set("cache.l2_misses", float64(want.l2.Misses))
	res.set("cache.writebacks", float64(wb+want.l2.Writebacks))
	res.set("dram.requests", float64(want.mem.Reads+want.mem.Writes))
	res.set("dram.row_hits", float64(want.mem.RowHits))
	if shape.cmp {
		res.set("noc.requests", float64(want.noc.Requests))
		res.set("coherence.invalidations", float64(want.dir.Invalidations))
	}

	missRatio := 0.0
	if l1acc > 0 {
		missRatio = float64(l1miss) / float64(l1acc)
	}
	engineKernels(rc, shape, missRatio, observed, sampler)
	return nil
}

// engineKernels times the layers the rig cannot interpose — analyzer
// and obs are called from inside cache and chip ticks — as isolated
// kernels on their public API, plus the chip-level one-offs.
func engineKernels(rc *runCtx, shape engineShape, missRatio float64, observed *chip.Chip, sampler *timeseries.Sampler) {
	res := rc.res
	reps := 9
	if rc.smoke {
		reps = 3
	}

	// chip.functional_speedup: wall to retire the same warm-up
	// instructions in the detailed tier and in the functional tier.
	var ratio []float64
	for i := 0; i < reps; i++ {
		det := chip.New(shape.build(rc.seed, nil))
		start := time.Now()
		det.RunUntilRetired(shape.warmInstr, shape.warmInstr*1000)
		detailed := time.Since(start)
		fun := chip.New(shape.build(rc.seed, nil))
		fun.SetTier(chip.TierFunctional)
		start = time.Now()
		if err := fun.RunFunctional(shape.warmInstr); err != nil {
			res.fail("RunFunctional: %v", err)
			break
		}
		ratio = append(ratio, float64(detailed)/float64(time.Since(start)))
	}
	res.setMedian("chip.functional_speedup", ratio)

	// chip.cpiexe_ms: the perfect-cache calibration every submitted run
	// pays before its first window.
	cfg := shape.build(rc.seed, nil)
	var cpiexe []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		cpi := chip.MeasureCPIexe(cfg.Cores[0].CPU, cfg.Cores[0].Workload, uint64(cfg.Cores[0].L1.HitLatency), 30_000)
		cpiexe = append(cpiexe, time.Since(start).Seconds()*1e3)
		if cpi <= 0 {
			res.fail("MeasureCPIexe returned %v", cpi)
		}
	}
	res.setMedian("chip.cpiexe_ms", cpiexe)

	// analyzer: the Start -> [ToMiss] -> Done script of one access with
	// the workload's measured L1 miss ratio, and the per-cycle Tick
	// with accesses in flight. Timed in batches: one event is shorter
	// than a clock read.
	const batch = 2000
	var eventNS, tickNS []float64
	for rep := 0; rep < 5*reps; rep++ {
		a := analyzer.New("bench")
		missEvery := 0
		if missRatio > 0 {
			missEvery = max(1, int(1/missRatio))
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			c := uint64(i)
			ac := a.Start(c)
			if missEvery > 0 && i%missEvery == 0 {
				a.ToMiss(ac, c+3)
				a.Done(ac, c+30)
			} else {
				a.Done(ac, c+3)
			}
		}
		eventNS = append(eventNS, float64(time.Since(start))/batch)
		held := []*analyzer.Access{a.Start(batch), a.Start(batch), a.Start(batch)}
		a.ToMiss(held[2], batch+3)
		start = time.Now()
		for i := 0; i < batch; i++ {
			a.Tick()
		}
		tickNS = append(tickNS, float64(time.Since(start))/batch)
		if a.InFlight() != len(held) {
			res.fail("analyzer kernel: %d accesses in flight, want %d", a.InFlight(), len(held))
		}
	}
	res.setMedian("analyzer.event_ns", eventNS)
	res.setMedian("analyzer.tick_ns", tickNS)

	// obs.snapshot_us: publishing and capturing the whole registry.
	var snap []float64
	for i := 0; i < 5*reps; i++ {
		start := time.Now()
		s := observed.ObsSnapshot()
		snap = append(snap, float64(time.Since(start))/1e3)
		if s == nil {
			res.fail("ObsSnapshot returned nil with obs enabled")
			break
		}
	}
	res.setMedian("obs.snapshot_us", snap)

	// obs.window_close_us, by difference: the cycle on which the
	// sampler closes a window against an ordinary cycle, both timed
	// around the chip's public Tick.
	var closing, ordinary []float64
	width := sampler.Width()
	for len(closing) < 4*reps {
		last := width-sampler.CyclesIntoWindow() == 1
		if !last && observed.Now()%64 != 0 {
			observed.Tick()
			continue
		}
		start := time.Now()
		observed.Tick()
		d := float64(time.Since(start)) / 1e3
		if last {
			closing = append(closing, d)
		} else {
			ordinary = append(ordinary, d)
		}
	}
	res.set("obs.window_close_us", max(0, median(closing)-median(ordinary)))
	res.details["obs.window_close_us"] = summarize(closing)
}
