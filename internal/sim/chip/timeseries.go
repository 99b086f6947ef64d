package chip

// This file wires the chip into the time-series sampler
// (internal/obs/timeseries): per-cycle stall attribution and occupancy
// accumulation, plus the window collector that deltas every layer's
// cumulative counters. Like the metrics registry, the sampler is
// opt-in; a chip without EnableTimeseries pays exactly one branch per
// Tick.

import (
	"fmt"

	"lpm/internal/analyzer"
	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/sim/noc"
)

// tsState is the chip-side bookkeeping behind an attached sampler:
// previous cumulative snapshots (for window deltas) and per-window
// accumulators filled by tsAccumulate each cycle.
type tsState struct {
	s *tsSampler

	// Previous cumulative snapshots, updated on every window collect.
	prevCPU []cpu.Stats
	prevL1P []analyzer.Params
	prevL1S []cache.Stats
	prevL2P analyzer.Params
	prevL2S cache.Stats
	prevL3P analyzer.Params
	prevL3S cache.Stats
	prevMem dram.Stats
	prevNoC noc.Stats

	// Per-window accumulators, zeroed on every window collect.
	stall     []timeseries.StallTree
	robOccSum []uint64
	l1OccSum  []uint64
	l2OccSum  uint64
	l3OccSum  uint64
	dramQSum  uint64
}

// tsSampler aliases the sampler so the Chip struct field stays typed.
type tsSampler = timeseries.Sampler

// EnableTimeseries attaches a cycle-windowed sampler to the chip and
// returns it. Call after warm-up and ResetCounters so windows cover only
// the measurement interval. Idempotent: repeat calls return the existing
// sampler. The sampler is owned by this chip's simulation goroutine.
func (c *Chip) EnableTimeseries(cfg timeseries.Config) *timeseries.Sampler {
	c.requireDetailed("EnableTimeseries")
	if c.ts != nil {
		return c.ts.s
	}
	s := timeseries.New(cfg)
	ts := &tsState{
		s:         s,
		prevCPU:   make([]cpu.Stats, len(c.cores)),
		prevL1P:   make([]analyzer.Params, len(c.l1s)),
		prevL1S:   make([]cache.Stats, len(c.l1s)),
		stall:     make([]timeseries.StallTree, len(c.cores)),
		robOccSum: make([]uint64, len(c.cores)),
		l1OccSum:  make([]uint64, len(c.l1s)),
	}
	c.ts = ts
	ts.rebase(c)
	l1Levels := make([]string, len(c.l1s))
	for i := range l1Levels {
		l1Levels[i] = fmt.Sprintf("l1.%d", i)
	}
	s.SetCollector(func(cycles uint64) timeseries.Window { return c.tsCollect(cycles, l1Levels) })
	for i, core := range c.cores {
		if core == nil {
			continue
		}
		cc := core
		s.Track(fmt.Sprintf("cpu.%d", i)+".rob_occupancy", func() float64 { return float64(cc.ROBOccupancy()) })
		s.Track(fmt.Sprintf("cpu.%d", i)+".iw_occupancy", func() float64 { return float64(cc.IWOccupancy()) })
	}
	for i, l1 := range c.l1s {
		ll := l1
		s.Track(l1Levels[i]+".mshr_occupancy", func() float64 { return float64(ll.OutstandingMisses()) })
	}
	s.Track("l2.mshr_occupancy", func() float64 { return float64(c.l2.OutstandingMisses()) })
	if c.l3 != nil {
		s.Track("l3.mshr_occupancy", func() float64 { return float64(c.l3.OutstandingMisses()) })
	}
	if c.router != nil {
		s.Track("noc.pending", func() float64 { return float64(c.router.Pending()) })
	}
	s.Track("dram.queue_depth", func() float64 { return float64(c.mem.QueuedRequests()) })
	return s
}

// FlushTimeseries closes the in-progress partial window, if any.
func (c *Chip) FlushTimeseries() {
	if c.ts == nil {
		return
	}
	c.ts.s.Flush(c.now)
}

// rebase re-anchors the previous-snapshot baselines at the components'
// current cumulative counters and zeroes the per-window accumulators —
// on attach, and again after ResetCounters (where the cumulative
// counters jump back to zero).
func (ts *tsState) rebase(c *Chip) {
	for i, core := range c.cores {
		if core != nil {
			ts.prevCPU[i] = core.Stats()
		}
		ts.prevL1P[i] = c.l1s[i].Analyzer().Snapshot()
		ts.prevL1S[i] = c.l1s[i].Stats()
		ts.stall[i] = timeseries.StallTree{}
		ts.robOccSum[i] = 0
		ts.l1OccSum[i] = 0
	}
	ts.prevL2P = c.l2.Analyzer().Snapshot()
	ts.prevL2S = c.l2.Stats()
	if c.l3 != nil {
		ts.prevL3P = c.l3.Analyzer().Snapshot()
		ts.prevL3S = c.l3.Stats()
	}
	ts.prevMem = c.mem.Stats()
	if c.router != nil {
		ts.prevNoC = c.router.Stats()
	}
	ts.l2OccSum, ts.l3OccSum, ts.dramQSum = 0, 0, 0
}

// tsAccumulate runs once per chip cycle after every component ticked:
// it charges each core's cycle to exactly one stall bucket and folds the
// occupancy probes into the window accumulators.
func (c *Chip) tsAccumulate() {
	ts := c.ts
	for i, core := range c.cores {
		ts.stall[i].Charge(c.classifyCoreCycle(core, i))
		if core != nil {
			ts.robOccSum[i] += uint64(core.ROBOccupancy())
		}
		ts.l1OccSum[i] += uint64(c.l1s[i].OutstandingMisses())
	}
	ts.l2OccSum += uint64(c.l2.OutstandingMisses())
	if c.l3 != nil {
		ts.l3OccSum += uint64(c.l3.OutstandingMisses())
	}
	ts.dramQSum += uint64(c.mem.QueuedRequests())
}

// classifyCoreCycle maps core i's last cycle to a stall bucket. Busy,
// empty and compute cycles come straight from the core; a memory-stall
// cycle is attributed to the deepest layer still holding the oldest
// request back, walking DRAM → NoC → L3 → L2 → L1. The walk uses
// shared-layer occupancy, so on a multicore chip a stall may be charged
// to a layer occupied by a sibling's traffic — attribution follows the
// resource that is actually congested, which is the quantity the layered
// matching argument needs.
func (c *Chip) classifyCoreCycle(core *cpu.Core, i int) int {
	if core == nil {
		return timeseries.ClassEmpty
	}
	switch core.LastClass() {
	case cpu.CycleBusy:
		return timeseries.ClassBusy
	case cpu.CycleOff, cpu.CycleEmpty:
		return timeseries.ClassEmpty
	case cpu.CycleComputeStall:
		return timeseries.ClassCompute
	}
	// Memory stall: find the deepest responsible layer.
	if c.l1s[i].OutstandingMisses() == 0 {
		// No miss outstanding at L1: the head access is in its hit phase,
		// so hit bandwidth/concurrency is the limiter.
		return timeseries.ClassL1Hit
	}
	if c.mem.QueuedRequests() > 0 {
		return timeseries.ClassDRAMQueue
	}
	if c.mem.InFlight() > 0 {
		return timeseries.ClassDRAMService
	}
	if c.router != nil && c.router.Pending() > 0 {
		return timeseries.ClassNoC
	}
	if c.l3 != nil && c.l3.OutstandingMisses() > 0 {
		return timeseries.ClassL3Miss
	}
	if c.l2.OutstandingMisses() > 0 || c.l2.ServiceActive() {
		return timeseries.ClassL2Miss
	}
	return timeseries.ClassL1Miss
}

// tsCollect is the sampler's collector: it builds one Window from the
// counter deltas since the previous collect, then re-anchors the
// baselines and zeroes the accumulators. l1Levels are the L1 instance
// labels, built once at attach. Every slice is allocated at its final
// length.
func (c *Chip) tsCollect(cycles uint64, l1Levels []string) timeseries.Window {
	ts := c.ts
	var w timeseries.Window
	w.CPU = make([]timeseries.CPUSample, len(c.cores))
	for i, core := range c.cores {
		var cs cpu.Stats
		if core != nil {
			cur := core.Stats()
			cs = cur.Sub(ts.prevCPU[i])
			ts.prevCPU[i] = cur
		}
		samp := timeseries.CPUSample{
			Instructions:    cs.Instructions,
			MemInstructions: cs.MemInstructions,
			Cycles:          cs.Cycles,
			StallCycles:     cs.StallCycles,
			MemStallCycles:  cs.MemStallCycles,
			EmptyCycles:     cs.EmptyCycles,
			MemActiveCycles: cs.MemActiveCycles,
			OverlapCycles:   cs.OverlapCycles,
			ROBOccupancySum: ts.robOccSum[i],
			IssueStalls:     cs.LSQFullEvents + cs.RejectedAccesses,
		}
		if cycles > 0 {
			samp.IPC = float64(cs.Instructions) / float64(cycles)
		}
		w.CPU[i] = samp
		ts.robOccSum[i] = 0
	}
	levels := len(c.l1s) + 1
	if c.l3 != nil {
		levels++
	}
	w.Cache = make([]timeseries.CacheSample, 0, levels)
	for i, l1 := range c.l1s {
		w.Cache = append(w.Cache, tsCacheSample(l1Levels[i], l1, &ts.prevL1P[i], &ts.prevL1S[i], &ts.l1OccSum[i]))
	}
	w.Cache = append(w.Cache, tsCacheSample("l2", c.l2, &ts.prevL2P, &ts.prevL2S, &ts.l2OccSum))
	if c.l3 != nil {
		w.Cache = append(w.Cache, tsCacheSample("l3", c.l3, &ts.prevL3P, &ts.prevL3S, &ts.l3OccSum))
	}

	curMem := c.mem.Stats()
	ms := curMem.Sub(ts.prevMem)
	ts.prevMem = curMem
	w.DRAM = timeseries.DRAMSample{
		Reads:             ms.Reads,
		Writes:            ms.Writes,
		RowHits:           ms.RowHits,
		RowMisses:         ms.RowMisses,
		RowConflicts:      ms.RowConflicts,
		Rejected:          ms.Rejected,
		ActiveCycles:      ms.ActiveCycles,
		LatencySum:        ms.LatencySum,
		BusBusyCycles:     ms.BusBusyCycles,
		QueueOccupancySum: ts.dramQSum,
	}
	ts.dramQSum = 0

	if c.router != nil {
		curNoC := c.router.Stats()
		ns := curNoC.Sub(ts.prevNoC)
		ts.prevNoC = curNoC
		w.NoC = &timeseries.NoCSample{
			Requests:      ns.Requests,
			Responses:     ns.Responses,
			Rejected:      ns.Rejected,
			QueueCycleSum: ns.QueueCycleSum,
		}
	}

	w.Stall = make([]timeseries.StallTree, len(ts.stall))
	copy(w.Stall, ts.stall)
	clear(ts.stall)
	return w
}

// tsCacheSample deltas one cache level into a CacheSample and advances
// its baselines.
func tsCacheSample(level string, cc *cache.Cache, prevP *analyzer.Params, prevS *cache.Stats, occ *uint64) timeseries.CacheSample {
	curP := cc.Analyzer().Snapshot()
	curS := cc.Stats()
	dp := curP.Sub(*prevP)
	ds := curS.Sub(*prevS)
	*prevP, *prevS = curP, curS
	s := timeseries.CacheSample{
		Level:            level,
		Params:           dp,
		Hits:             ds.Hits,
		Misses:           ds.Misses,
		PrimaryMisses:    ds.PrimaryMisses,
		MSHRWaits:        ds.MSHRWaits,
		Rejected:         ds.Rejected,
		MSHROccupancySum: *occ,
	}
	*occ = 0
	return s
}
