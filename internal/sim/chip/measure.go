package chip

import (
	"lpm/internal/analyzer"
	"lpm/internal/core"
	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/cpu"
)

// WarmUnit says what a warm-up length counts: retired instructions per
// active core (the single-program experiments) or chip cycles (the
// multiprogram shared runs).
type WarmUnit uint8

const (
	WarmInstructions WarmUnit = iota
	WarmCycles
)

// WarmUp is the first step of the measured-window protocol (DESIGN.md
// §5): WarmUp, ResetCounters, Run(instr) or RunCycles(window), Measure.
// A detailed warm-up runs the cycle-accurate engine until every active
// core has retired n instructions (bounded by maxCycles), or for exactly
// n cycles. A fast warm-up instead runs n functional-tier rounds — one
// instruction per active core per round, in either unit — warming
// caches, directory and DRAM rows at per-instruction cost; its warm
// microstate differs, so results are deterministic but not bit-identical
// to a detailed warm-up's, and the fast flag joins every caller's memo
// key. In every mode the ResetCounters that follows zeroes the
// retirement count Run reads, so Run(instr) measures instr instructions.
// The error is the latched run error — cancellation or a watchdog trip —
// after which there is no window to measure.
func (c *Chip) WarmUp(n uint64, unit WarmUnit, fast bool, maxCycles uint64) error {
	switch {
	case fast:
		c.SetTier(TierFunctional)
		_ = c.RunFunctional(n) // its error is the latched runErr returned below
		c.SetTier(TierDetailed)
	case unit == WarmCycles:
		c.RunCycles(n)
	default:
		c.RunUntilRetired(n, maxCycles)
	}
	return c.runErr
}

// counters reads the LPM request chain's raw counters for the cores in
// slots: their CPU counters summed (Cycles is the longest core's), their
// private L1s summed, then the shared L2, the optional L3 and memory.
func (c *Chip) counters(slots []int) (cpu.Stats, analyzer.Hierarchy) {
	var cs cpu.Stats
	var l1 analyzer.Level
	for _, i := range slots {
		if cr := c.cores[i]; cr != nil {
			s := cr.Stats()
			cs.Cycles = max(cs.Cycles, s.Cycles)
			cs.Instructions += s.Instructions
			cs.MemInstructions += s.MemInstructions
			cs.MemStallCycles += s.MemStallCycles
			cs.MemActiveCycles += s.MemActiveCycles
			cs.OverlapCycles += s.OverlapCycles
		}
		l1.Params = l1.Add(c.l1s[i].Analyzer().Snapshot())
		l1.Primary += c.l1s[i].Stats().PrimaryMisses
	}
	level := func(cc *cache.Cache) analyzer.Level {
		return analyzer.Level{Params: cc.Analyzer().Snapshot(), Primary: cc.Stats().PrimaryMisses}
	}
	h := analyzer.Hierarchy{
		Instructions:    cs.Instructions,
		MemInstructions: cs.MemInstructions,
		Levels:          []analyzer.Level{l1, level(c.l2)},
	}
	if c.l3 != nil {
		h.Levels = append(h.Levels, level(c.l3))
	}
	ms := c.mem.Stats()
	h.MemServed, h.MemActiveCycles = ms.Reads+ms.Writes, ms.ActiveCycles
	return cs, h
}

// measure assembles the three-layer measurement of the cores in slots
// against the shared L2 and memory (an L3, when present, is not one of
// the Measurement's three layers).
func (c *Chip) measure(slots []int, cpiExe float64) core.Measurement {
	cs, h := c.counters(slots)
	l1, l2 := h.Levels[0], h.Levels[1]
	return core.Measurement{
		CPIexe:        cpiExe,
		Fmem:          h.Fmem(),
		OverlapRatio:  cs.OverlapRatio(),
		CAMAT1:        l1.CAMAT(),
		CAMAT2:        l2.CAMAT(),
		CAMAT3:        h.MemCAMAT(),
		MR1:           h.MR(0),
		MR2:           h.MR(1),
		PMR1:          l1.PMR(),
		H1:            l1.H(),
		CH1:           l1.CH(),
		PAMP1:         l1.PAMP(),
		AMP1:          l1.AMP(),
		Cm1:           l1.Cm(),
		CM1:           l1.CM(),
		IPC:           cs.IPC(),
		MeasuredStall: cs.DataStallPerInstr(),
		Obs:           c.ObsSnapshot(),
		Timeline:      c.timelineSeries(),
	}
}

// Measure returns core i's LPM measurement. cpiExe must come from a
// perfect-cache calibration run (MeasureCPIexe); the remaining inputs are
// read from the analyzers. The shared L2 and memory are seen by all
// cores.
func (c *Chip) Measure(i int, cpiExe float64) core.Measurement {
	c.requireDetailed("Measure")
	return c.measure([]int{i}, cpiExe)
}

// timelineSeries flushes and copies the attached sampler's series (nil
// without a sampler) so measurements carry the window timeline.
func (c *Chip) timelineSeries() *timeseries.Series {
	if c.ts == nil {
		return nil
	}
	c.ts.s.Flush(c.now)
	ser := c.ts.s.Series()
	return &ser
}
