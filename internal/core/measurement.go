package core

import (
	"fmt"

	"lpm/internal/analyzer"
	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
)

// Measurement is one interval's worth of LPM model inputs for a
// three-layer hierarchy (L1, LLC=L2, main memory), as produced by the
// C-AMAT analyzers plus the core counters. All quantities are averages
// over the interval.
type Measurement struct {
	// CPIexe is computation cycles per instruction under a perfect cache
	// (Eq. 5).
	CPIexe float64
	// Fmem is the fraction of instructions accessing memory.
	Fmem float64
	// OverlapRatio is the computation/memory overlap ratio of Eq. (8).
	OverlapRatio float64

	// CAMAT1/2/3 are the layers' concurrent average access times; layer 3
	// (main memory) is 1/APC_3.
	CAMAT1, CAMAT2, CAMAT3 float64
	// MR1, MR2 are L1's and L2's request rates: primary misses per
	// access (DESIGN.md §6 note 1), as analyzer.Hierarchy.MR derives them.
	MR1, MR2 float64
	// PMR1 is L1's pure miss rate.
	PMR1 float64
	// H1, CH1 are L1's hit time and hit concurrency.
	H1, CH1 float64
	// PAMP1, AMP1, Cm1, CM1 are L1's pure/conventional miss penalties and
	// concurrencies, the η₁ ingredients.
	PAMP1, AMP1, Cm1, CM1 float64

	// IPC and MeasuredStall (memory stall cycles per instruction) are
	// informational simulator ground truth, not model inputs.
	IPC           float64
	MeasuredStall float64

	// Obs is the per-layer metrics snapshot for the measurement window —
	// nil unless the chip ran with observability enabled (chip.EnableObs).
	// It is informational and never feeds the model equations.
	Obs *obs.Snapshot `json:"Obs,omitempty"`

	// Timeline is the cycle-windowed time series for the measurement
	// window — nil unless the chip ran with a sampler attached
	// (chip.EnableTimeseries). Like Obs, it is informational.
	Timeline *timeseries.Series `json:"Timeline,omitempty"`
}

// LPMR1 evaluates Eq. (9): the request/supply mismatch between the
// computing units and L1.
func (m Measurement) LPMR1() float64 { return analyzer.LPMR(m.CAMAT1, m.Fmem, m.CPIexe) }

// LPMR2 evaluates Eq. (10): the mismatch between L1 and the LLC.
func (m Measurement) LPMR2() float64 { return analyzer.LPMR(m.CAMAT2, m.Fmem, m.CPIexe, m.MR1) }

// LPMR3 evaluates Eq. (11): the mismatch between the LLC and main memory.
func (m Measurement) LPMR3() float64 { return analyzer.LPMR(m.CAMAT3, m.Fmem, m.CPIexe, m.MR1, m.MR2) }

// Eta1 returns η₁ of Eq. (4) from the measured L1 parameters.
func (m Measurement) Eta1() float64 { return Eta1(m.PAMP1, m.AMP1, m.Cm1, m.CM1) }

// Eta returns the η of Eq. (13): η₁ · pMR₁/MR₁, the combined concurrency
// and locality effectiveness factor. Small η means mismatch at L2 barely
// reaches the processor.
func (m Measurement) Eta() float64 {
	if m.MR1 <= 0 {
		return 0
	}
	return m.Eta1() * m.PMR1 / m.MR1
}

// StallEq7 predicts data stall time per instruction via Eq. (7):
// f_mem · C-AMAT₁ · (1 − overlapRatio).
func (m Measurement) StallEq7() float64 {
	return m.Fmem * m.CAMAT1 * (1 - m.OverlapRatio)
}

// StallEq12 predicts data stall time per instruction via Eq. (12):
// CPI_exe · (1 − overlapRatio) · LPMR₁. Algebraically identical to
// Eq. (7).
func (m Measurement) StallEq12() float64 {
	return m.CPIexe * (1 - m.OverlapRatio) * m.LPMR1()
}

// StallEq13 predicts data stall time per instruction via Eq. (13):
// (H₁·f_mem/C_H₁ + CPI_exe·η·LPMR₂) · (1 − overlapRatio), expressing the
// stall in terms of the L2-layer mismatch.
func (m Measurement) StallEq13() float64 {
	ch1 := m.CH1
	if ch1 <= 0 {
		ch1 = 1
	}
	return (m.H1*m.Fmem/ch1 + m.CPIexe*m.Eta()*m.LPMR2()) * (1 - m.OverlapRatio)
}

// T1 returns the LPMR₁ threshold of Eq. (14) for a data-stall target of
// deltaPct percent of pure computing time: Δ% / (1 − overlapRatio).
func (m Measurement) T1(deltaPct float64) float64 {
	denom := 1 - m.OverlapRatio
	if denom <= 0 {
		denom = 1e-9
	}
	return (deltaPct / 100) / denom
}

// T2 returns the LPMR₂ threshold of Eq. (15):
// (1/η) · (Δ%/(1−overlap) − H₁·f_mem/(C_H₁·CPI_exe)).
// ok is false only when the threshold is unbounded: η≈0 (an L2
// mismatch cannot reach the processor) or CPI_exe ≤ 0; callers treat
// !ok as "always satisfied". When the L1-local term
// H₁·f_mem/(C_H₁·CPI_exe) alone exceeds the budget Δ%/(1−overlap), T2
// comes back negative with ok=true: no LPMR₂ ≥ 0 meets it, so every L1
// mismatch is Case I and Case II is unreachable.
func (m Measurement) T2(deltaPct float64) (t2 float64, ok bool) {
	eta := m.Eta()
	if eta <= 1e-12 {
		return 0, false
	}
	ch1 := m.CH1
	if ch1 <= 0 {
		ch1 = 1
	}
	cpi := m.CPIexe
	if cpi <= 0 {
		return 0, false
	}
	denom := 1 - m.OverlapRatio
	if denom <= 0 {
		denom = 1e-9
	}
	return (1 / eta) * (deltaPct/100/denom - m.H1*m.Fmem/(ch1*cpi)), true
}

// String renders the headline quantities.
func (m Measurement) String() string {
	return fmt.Sprintf(
		"LPMR1=%.3f LPMR2=%.3f LPMR3=%.3f eta=%.4f stall/instr(model)=%.3f (measured)=%.3f IPC=%.3f",
		m.LPMR1(), m.LPMR2(), m.LPMR3(), m.Eta(), m.StallEq12(), m.MeasuredStall, m.IPC)
}
