package core

import (
	"context"
	"fmt"
)

// Grain selects the optimization strictness of §IV: fine-grained targets
// data stall <= 1% of pure computing time, coarse-grained 10%.
type Grain uint8

// Optimization grains.
const (
	// FineGrain is the paper's "1%" condition.
	FineGrain Grain = iota
	// CoarseGrain is the relaxed "10%" condition.
	CoarseGrain
)

// DeltaPct returns the stall target as a percentage of pure computing
// time.
func (g Grain) DeltaPct() float64 {
	if g == CoarseGrain {
		return 10
	}
	return 1
}

// String implements fmt.Stringer.
func (g Grain) String() string {
	if g == CoarseGrain {
		return "coarse(10%)"
	}
	return "fine(1%)"
}

// Target is the system the LPM algorithm optimizes: hardware knobs on a
// reconfigurable architecture (case study I), a scheduling assignment
// (case study II), or anything else that can re-measure itself.
type Target interface {
	// Measure returns the current interval's measurement, or the error
	// that prevented it (a cancelled or livelocked simulation).
	Measure(ctx context.Context) (Measurement, error)
	// OptimizeL1 applies one step that improves layer-1 matching
	// (e.g. more ports/IW/ROB/issue width). It reports false when the
	// design space is exhausted in that direction.
	OptimizeL1() bool
	// OptimizeL2 applies one step improving layer-2 matching
	// (e.g. more MSHRs, L2 banking/interleaving).
	OptimizeL2() bool
	// ReduceOverprovision withdraws one step of hardware parallelism,
	// reporting false when nothing can be reduced.
	ReduceOverprovision() bool
}

// Case identifies which branch of the Fig. 3 algorithm acted.
type Case uint8

// Algorithm cases, per Fig. 3.
const (
	// CaseBoth optimizes L1 and L2 together (LPMR1 > T1 and LPMR2 > T2).
	CaseBoth Case = iota + 1
	// CaseL1Only optimizes only L1 (LPMR1 > T1, LPMR2 <= T2).
	CaseL1Only
	// CaseReduce trims overprovisioned hardware (LPMR1 + δ < T1).
	CaseReduce
	// CaseDone terminates (T1 >= LPMR1 >= T1 - δ).
	CaseDone
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseBoth:
		return "I(optimize L1+L2)"
	case CaseL1Only:
		return "II(optimize L1)"
	case CaseReduce:
		return "III(reduce overprovision)"
	case CaseDone:
		return "IV(done)"
	default:
		return fmt.Sprintf("Case(%d)", uint8(c))
	}
}

// Step records one iteration of the algorithm for reporting.
type Step struct {
	// Case is the branch taken.
	Case Case
	// Before is the measurement that drove the decision.
	Before Measurement
	// T1, T2 are the thresholds used; T2Valid is false when η≈0 made the
	// L2 condition vacuous.
	T1, T2  float64
	T2Valid bool
}

// Result summarises an algorithm run.
type Result struct {
	// Steps is the per-iteration trace.
	Steps []Step
	// Final is the last measurement taken.
	Final Measurement
	// Converged reports whether the run ended in Case IV (or could no
	// longer improve) rather than by exhausting MaxSteps.
	Converged bool
	// MetTarget reports whether the final LPMR1 satisfies T1.
	MetTarget bool
}

// AlgorithmConfig parameterises Run.
type AlgorithmConfig struct {
	// Grain selects the 1% or 10% stall target.
	Grain Grain
	// SlackFrac is δ expressed as a fraction of T1 (the paper's case
	// study II uses δ = 50% of T1). Zero disables the overprovision-
	// reduction branch.
	SlackFrac float64
	// MaxSteps bounds iterations; 0 means 64.
	MaxSteps int
}

// Run executes the LPMR-reduction algorithm of Fig. 3 against t. The
// algorithm measures, derives thresholds, and dispatches among the four
// cases until convergence or step exhaustion. A failed measurement ends
// the run: the steps taken so far come back with the error.
func Run(ctx context.Context, t Target, cfg AlgorithmConfig) (Result, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 64
	}
	var res Result
	delta := cfg.Grain.DeltaPct()

	for len(res.Steps) < maxSteps {
		m, err := t.Measure(ctx)
		if err != nil {
			return res, err
		}
		res.Final = m
		t1 := m.T1(delta)
		t2, t2ok := m.T2(delta)
		lpmr1, lpmr2 := m.LPMR1(), m.LPMR2()
		slack := cfg.SlackFrac * t1

		step := Step{Before: m, T1: t1, T2: t2, T2Valid: t2ok}
		switch {
		case lpmr1 > t1 && t2ok && lpmr2 > t2:
			// Case I: both layers mismatch.
			step.Case = CaseBoth
			res.Steps = append(res.Steps, step)
			okL1 := t.OptimizeL1()
			okL2 := t.OptimizeL2()
			if !okL1 && !okL2 {
				res.Converged = true
				res.MetTarget = false
				return res, nil
			}
		case lpmr1 > t1:
			// Case II: only the L1 layer mismatches.
			step.Case = CaseL1Only
			res.Steps = append(res.Steps, step)
			if !t.OptimizeL1() {
				res.Converged = true
				res.MetTarget = false
				return res, nil
			}
		case slack > 0 && lpmr1+slack < t1:
			// Case III: hardware overprovisioned beyond δ.
			step.Case = CaseReduce
			res.Steps = append(res.Steps, step)
			if !t.ReduceOverprovision() {
				res.Converged = true
				res.MetTarget = true
				m, err := t.Measure(ctx)
				if err != nil {
					return res, err
				}
				res.Final = m
				return res, nil
			}
		default:
			// Case IV: T1 >= LPMR1 >= T1-δ (or no slack to reduce).
			step.Case = CaseDone
			res.Steps = append(res.Steps, step)
			res.Converged = true
			res.MetTarget = true
			return res, nil
		}
	}
	m, err := t.Measure(ctx)
	if err != nil {
		return res, err
	}
	res.Final = m
	res.MetTarget = m.LPMR1() <= m.T1(delta)
	return res, nil
}
