package chip

import (
	"lpm/internal/analyzer"
	"lpm/internal/core"
	"lpm/internal/obs/timeseries"
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

// requestRate converts primary-miss counts into the LPM model's MR terms:
// the fraction of a layer's accesses that become requests on the next
// layer. Coalesced (secondary) misses never reach the next layer, so the
// conventional per-access miss rate would overstate downstream demand.
func requestRate(primary, completed uint64) float64 {
	if completed == 0 {
		return 0
	}
	return float64(primary) / float64(completed)
}

// measurementFrom assembles a core.Measurement from one CPU's counters, an
// L1 view, the shared L2 view and the memory APC.
func measurementFrom(cs cpu.Stats, l1, l2 analyzer.Params, mr1, mr2, apc3, cpiExe float64) core.Measurement {
	m := core.Measurement{
		CPIexe:        cpiExe,
		Fmem:          cs.Fmem(),
		OverlapRatio:  cs.OverlapRatio(),
		CAMAT1:        l1.CAMAT(),
		CAMAT2:        l2.CAMAT(),
		MR1:           mr1,
		MR2:           mr2,
		PMR1:          l1.PMR(),
		H1:            l1.H(),
		CH1:           l1.CH(),
		PAMP1:         l1.PAMP(),
		AMP1:          l1.AMP(),
		Cm1:           l1.Cm(),
		CM1:           l1.CM(),
		IPC:           cs.IPC(),
		MeasuredStall: cs.DataStallPerInstr(),
	}
	if apc3 > 0 {
		m.CAMAT3 = 1 / apc3
	}
	return m
}

// Measure returns core i's LPM measurement. cpiExe must come from a
// perfect-cache calibration run (MeasureCPIexe); the remaining inputs are
// read from the analyzers. The shared L2 and memory are seen by all
// cores.
func (c *Chip) Measure(i int, cpiExe float64) core.Measurement {
	c.requireDetailed("Measure")
	var cs cpu.Stats
	if c.cores[i] != nil {
		cs = c.cores[i].Stats()
	}
	l1 := c.l1s[i].Analyzer().Snapshot()
	l2 := c.l2.Analyzer().Snapshot()
	mr1 := requestRate(c.l1s[i].Stats().PrimaryMisses, l1.Completed)
	mr2 := requestRate(c.l2.Stats().PrimaryMisses, l2.Completed)
	m := measurementFrom(cs, l1, l2, mr1, mr2, c.mem.Stats().APC(), cpiExe)
	m.Obs = c.ObsSnapshot()
	m.Timeline = c.timelineSeries()
	return m
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

// MeasureAggregate returns a chip-wide measurement: per-core CPU counters
// summed, per-core L1 analyzers summed, against the shared L2 and memory.
// cpiExe should be the (instruction-weighted) perfect-cache CPI of the
// mix.
func (c *Chip) MeasureAggregate(cpiExe float64) core.Measurement {
	c.requireDetailed("MeasureAggregate")
	var cs cpu.Stats
	var l1 analyzer.Params
	var primary1 uint64
	for i, cr := range c.cores {
		if cr == nil {
			continue
		}
		s := cr.Stats()
		cs.Cycles = max(cs.Cycles, s.Cycles)
		cs.Instructions += s.Instructions
		cs.MemInstructions += s.MemInstructions
		cs.StallCycles += s.StallCycles
		cs.MemStallCycles += s.MemStallCycles
		cs.MemActiveCycles += s.MemActiveCycles
		cs.OverlapCycles += s.OverlapCycles
		l1 = l1.Add(c.l1s[i].Analyzer().Snapshot())
		primary1 += c.l1s[i].Stats().PrimaryMisses
	}
	l2 := c.l2.Analyzer().Snapshot()
	mr1 := requestRate(primary1, l1.Completed)
	mr2 := requestRate(c.l2.Stats().PrimaryMisses, l2.Completed)
	m := measurementFrom(cs, l1, l2, mr1, mr2, c.mem.Stats().APC(), cpiExe)
	m.Obs = c.ObsSnapshot()
	m.Timeline = c.timelineSeries()
	return m
}

// MeasureChain returns the generalised multi-level chain view for core i:
// L1, L2, the optional L3, and main memory, with per-layer C-AMATs and
// primary-miss forwarding ratios — the input to core.Chain's
// arbitrary-depth LPMR computation.
func (c *Chip) MeasureChain(i int, cpiExe float64) core.Chain {
	c.requireDetailed("MeasureChain")
	var cs cpu.Stats
	if c.cores[i] != nil {
		cs = c.cores[i].Stats()
	}
	l1 := c.l1s[i].Analyzer().Snapshot()
	l2 := c.l2.Analyzer().Snapshot()
	ch := core.Chain{
		CPIexe: cpiExe,
		Fmem:   cs.Fmem(),
		Layers: []core.Layer{
			{Name: "L1", CAMAT: l1.CAMAT(), MR: requestRate(c.l1s[i].Stats().PrimaryMisses, l1.Completed)},
			{Name: "L2", CAMAT: l2.CAMAT(), MR: requestRate(c.l2.Stats().PrimaryMisses, l2.Completed)},
		},
	}
	if c.l3 != nil {
		l3 := c.l3.Analyzer().Snapshot()
		ch.Layers = append(ch.Layers, core.Layer{
			Name:  "L3",
			CAMAT: l3.CAMAT(),
			MR:    requestRate(c.l3.Stats().PrimaryMisses, l3.Completed),
		})
	}
	mm := core.Layer{Name: "MM"}
	if apc := c.mem.Stats().APC(); apc > 0 {
		mm.CAMAT = 1 / apc
	}
	ch.Layers = append(ch.Layers, mm)
	return ch
}
