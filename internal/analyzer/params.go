package analyzer

import "fmt"

// Params is the raw counter snapshot of one layer, plus derived C-AMAT
// parameters. All derived methods guard empty denominators by returning 0,
// so a layer that saw no traffic reports zeros rather than NaN.
type Params struct {
	// Accesses counts accesses started; Completed counts accesses that
	// finished. They differ only by the in-flight population.
	Accesses  uint64
	Completed uint64
	// Misses counts completed accesses that missed; PureMisses the subset
	// that experienced at least one pure-miss cycle.
	Misses     uint64
	PureMisses uint64
	// Cycles is total ticks observed; ActiveCycles the memory-active
	// subset (>= 1 access in hit or miss phase).
	Cycles       uint64
	ActiveCycles uint64
	// HitActiveCycles have >= 1 access in hit phase; HitAccessCycles is
	// the sum over those cycles of the hit-phase population.
	HitActiveCycles uint64
	HitAccessCycles uint64
	// MissActiveCycles have >= 1 outstanding miss; MissAccessCycles sums
	// the outstanding-miss population over them.
	MissActiveCycles uint64
	MissAccessCycles uint64
	// PureCycles have >= 1 outstanding miss and no hit activity;
	// PureAccessCycles sums the outstanding-miss population over them.
	PureCycles       uint64
	PureAccessCycles uint64
	// MissPenaltySum accumulates, per completed miss, the cycles between
	// the end of its hit phase and its fill (the per-access miss penalty).
	MissPenaltySum uint64
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// H is the average hit-operation time in cycles (the paper's H).
func (p Params) H() float64 { return ratio(p.HitAccessCycles, p.Accesses) }

// CH is the average hit concurrency over hit-active cycles (C_H).
func (p Params) CH() float64 { return ratio(p.HitAccessCycles, p.HitActiveCycles) }

// CM is the average pure-miss concurrency over pure-miss cycles (C_M).
func (p Params) CM() float64 { return ratio(p.PureAccessCycles, p.PureCycles) }

// Cm is the average conventional miss concurrency over miss-active cycles
// (C_m).
func (p Params) Cm() float64 { return ratio(p.MissAccessCycles, p.MissActiveCycles) }

// MR is the conventional miss rate.
func (p Params) MR() float64 { return ratio(p.Misses, p.Completed) }

// PMR is the pure miss rate (pMR).
func (p Params) PMR() float64 { return ratio(p.PureMisses, p.Completed) }

// AMP is the conventional average miss penalty: the sum of per-miss
// penalty cycles over the number of misses.
func (p Params) AMP() float64 { return ratio(p.MissPenaltySum, p.Misses) }

// PAMP is the average pure-miss penalty (pAMP): total pure-miss
// access-cycles per pure miss, per the Fig. 1 arithmetic.
func (p Params) PAMP() float64 { return ratio(p.PureAccessCycles, p.PureMisses) }

// APC is accesses per memory-active cycle (Eq. 3 context).
func (p Params) APC() float64 { return ratio(p.Completed, p.ActiveCycles) }

// CAMAT evaluates Eq. (2): H/C_H + pMR * pAMP/C_M. With the package's
// measurement semantics this equals 1/APC exactly once the layer has
// drained (Accesses == Completed).
func (p Params) CAMAT() float64 {
	v := 0.0
	if ch := p.CH(); ch > 0 {
		v += p.H() / ch
	}
	if cm := p.CM(); cm > 0 {
		v += p.PMR() * p.PAMP() / cm
	}
	return v
}

// AMAT evaluates Eq. (1): H + MR * AMP, ignoring all concurrency.
func (p Params) AMAT() float64 { return p.H() + p.MR()*p.AMP() }

// String renders the principal parameters for reports.
func (p Params) String() string {
	return fmt.Sprintf(
		"acc=%d H=%.2f CH=%.2f MR=%.4f pMR=%.4f AMP=%.2f pAMP=%.2f Cm=%.2f CM=%.2f APC=%.4f C-AMAT=%.3f AMAT=%.3f",
		p.Completed, p.H(), p.CH(), p.MR(), p.PMR(), p.AMP(), p.PAMP(),
		p.Cm(), p.CM(), p.APC(), p.CAMAT(), p.AMAT())
}

// Sub returns the counter-wise difference p - q, for windowed deltas of
// cumulative counters (q must be an earlier snapshot of the same layer).
// The derived C-AMAT parameters of the difference are the window's own.
func (p Params) Sub(q Params) Params {
	return Params{
		Accesses:         p.Accesses - q.Accesses,
		Completed:        p.Completed - q.Completed,
		Misses:           p.Misses - q.Misses,
		PureMisses:       p.PureMisses - q.PureMisses,
		Cycles:           p.Cycles - q.Cycles,
		ActiveCycles:     p.ActiveCycles - q.ActiveCycles,
		HitActiveCycles:  p.HitActiveCycles - q.HitActiveCycles,
		HitAccessCycles:  p.HitAccessCycles - q.HitAccessCycles,
		MissActiveCycles: p.MissActiveCycles - q.MissActiveCycles,
		MissAccessCycles: p.MissAccessCycles - q.MissAccessCycles,
		PureCycles:       p.PureCycles - q.PureCycles,
		PureAccessCycles: p.PureAccessCycles - q.PureAccessCycles,
		MissPenaltySum:   p.MissPenaltySum - q.MissPenaltySum,
	}
}

// Add returns the counter-wise sum of p and q, used to aggregate per-core
// analyzers into a chip-level view.
func (p Params) Add(q Params) Params {
	return Params{
		Accesses:         p.Accesses + q.Accesses,
		Completed:        p.Completed + q.Completed,
		Misses:           p.Misses + q.Misses,
		PureMisses:       p.PureMisses + q.PureMisses,
		Cycles:           p.Cycles + q.Cycles,
		ActiveCycles:     p.ActiveCycles + q.ActiveCycles,
		HitActiveCycles:  p.HitActiveCycles + q.HitActiveCycles,
		HitAccessCycles:  p.HitAccessCycles + q.HitAccessCycles,
		MissActiveCycles: p.MissActiveCycles + q.MissActiveCycles,
		MissAccessCycles: p.MissAccessCycles + q.MissAccessCycles,
		PureCycles:       p.PureCycles + q.PureCycles,
		PureAccessCycles: p.PureAccessCycles + q.PureAccessCycles,
		MissPenaltySum:   p.MissPenaltySum + q.MissPenaltySum,
	}
}

// Level is one cache layer of a Hierarchy: its counters plus its primary
// misses (MSHR allocations), the misses that reach the next layer.
type Level struct {
	Params
	Primary uint64
}

// Hierarchy is one interval's counters along the LPM request chain, the
// one place f_mem, the primary-miss MRs and memory's 1/APC_3 are derived
// (DESIGN.md §6 note 1). Levels runs L1 (private L1s summed), L2, then
// the optional L3; MemServed counts memory reads plus writes.
type Hierarchy struct {
	Instructions, MemInstructions uint64
	Levels                        []Level
	MemServed, MemActiveCycles    uint64
}

// Fmem is the fraction of instructions that access memory.
func (h Hierarchy) Fmem() float64 { return ratio(h.MemInstructions, h.Instructions) }

// MR is level i's request rate, primary misses per completed access (0
// past the last level). Coalesced misses never reach level i+1, so the
// conventional miss rate would overstate its demand.
func (h Hierarchy) MR(i int) float64 {
	if i >= len(h.Levels) {
		return 0
	}
	return ratio(h.Levels[i].Primary, h.Levels[i].Completed)
}

// MemCAMAT is main memory's C-AMAT, 1/APC_3 (Eq. 3), or 0 when idle.
func (h Hierarchy) MemCAMAT() float64 {
	if apc := ratio(h.MemServed, h.MemActiveCycles); apc > 0 {
		return 1 / apc
	}
	return 0
}

// LPMR evaluates Eqs. (9)-(11), C-AMAT · f_mem · MR_1 ··· MR_k / CPI_exe,
// where mrs are the request rates of the layers above. It multiplies
// left to right and divides last, so every caller gets the same bits,
// and is 0 without a positive CPI_exe.
func LPMR(camat, fmem, cpiExe float64, mrs ...float64) float64 {
	if cpiExe <= 0 {
		return 0
	}
	v := camat * fmem
	for _, mr := range mrs {
		v *= mr
	}
	return v / cpiExe
}
