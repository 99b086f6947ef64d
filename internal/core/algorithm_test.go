package core

import (
	"context"
	"errors"
	"testing"
)

// mockTarget is a hand-scripted Target whose LPMRs respond multiplicatively
// to optimization steps. With CPIexe=1, Fmem=1, MR1=1, overlap=0.99 the
// thresholds come out T1 = Δ and LPMR1 = CAMAT1, LPMR2 = CAMAT2, making
// the scenarios easy to stage.
type mockTarget struct {
	camat1, camat2   float64
	l1Step, l2Step   float64 // multipliers applied per optimization
	reduceStep       float64 // multiplier applied per reduction
	l1Left, l2Left   int     // remaining steps before exhaustion
	reduceLeft       int
	l1Calls, l2Calls int
	reduceCalls      int
	measures         int
	failAt           int // the measurement (1-based) that fails; 0 = none
}

var errMeasure = errors.New("measurement failed")

func (m *mockTarget) Measure(context.Context) (Measurement, error) {
	if m.measures++; m.measures == m.failAt {
		return Measurement{}, errMeasure
	}
	return Measurement{
		CPIexe:       1,
		Fmem:         1,
		OverlapRatio: 0.99,
		CAMAT1:       m.camat1,
		CAMAT2:       m.camat2,
		MR1:          1,
		PMR1:         1,
		H1:           0.5,
		CH1:          1,
		PAMP1:        1,
		AMP1:         1,
		Cm1:          1,
		CM1:          1,
	}, nil
}

// runOK runs the algorithm and fails the test on an error.
func runOK(t *testing.T, tgt Target, cfg AlgorithmConfig) Result {
	t.Helper()
	res, err := Run(context.Background(), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (m *mockTarget) OptimizeL1() bool {
	if m.l1Left <= 0 {
		return false
	}
	m.l1Left--
	m.l1Calls++
	m.camat1 *= m.l1Step
	return true
}

func (m *mockTarget) OptimizeL2() bool {
	if m.l2Left <= 0 {
		return false
	}
	m.l2Left--
	m.l2Calls++
	m.camat2 *= m.l2Step
	// L2 improvement also trims the penalty component of C-AMAT1.
	m.camat1 = 0.5 + (m.camat1-0.5)*m.l2Step
	return true
}

func (m *mockTarget) ReduceOverprovision() bool {
	if m.reduceLeft <= 0 {
		return false
	}
	m.reduceLeft--
	m.reduceCalls++
	m.camat1 *= m.reduceStep
	return true
}

// With η = 1, overlap = 0.99, Δ = 1: T1 = 1, T2 = 1 - 0.5 = 0.5.

func TestAlgorithmCaseSequenceBothThenL1(t *testing.T) {
	tgt := &mockTarget{
		camat1: 8, camat2: 2,
		l1Step: 0.85, l2Step: 0.6,
		l1Left: 100, l2Left: 100,
	}
	res := runOK(t, tgt, AlgorithmConfig{Grain: FineGrain})
	if !res.Converged || !res.MetTarget {
		t.Fatalf("converged=%v met=%v", res.Converged, res.MetTarget)
	}
	if res.Final.LPMR1() > 1 {
		t.Fatalf("final LPMR1 = %v > T1", res.Final.LPMR1())
	}
	// The trace must start with Case I, move through Case II once L2
	// matches, and end with Case IV.
	if res.Steps[0].Case != CaseBoth {
		t.Fatalf("first case = %v", res.Steps[0].Case)
	}
	sawL1Only := false
	for _, s := range res.Steps {
		if s.Case == CaseL1Only {
			sawL1Only = true
		}
	}
	if !sawL1Only {
		t.Fatal("never entered Case II")
	}
	if last := res.Steps[len(res.Steps)-1].Case; last != CaseDone {
		t.Fatalf("last case = %v", last)
	}
	if tgt.l2Calls == 0 || tgt.l1Calls == 0 {
		t.Fatal("optimizers not invoked")
	}
	// Case II must not touch L2: L2 calls == number of CaseBoth steps.
	both := 0
	for _, s := range res.Steps {
		if s.Case == CaseBoth {
			both++
		}
	}
	if tgt.l2Calls != both {
		t.Fatalf("L2 called %d times across %d Case-I steps", tgt.l2Calls, both)
	}
}

func TestAlgorithmOverprovisionReduction(t *testing.T) {
	tgt := &mockTarget{
		camat1: 0.2, camat2: 0.1,
		reduceStep: 1.5, reduceLeft: 100,
	}
	res := runOK(t, tgt, AlgorithmConfig{Grain: FineGrain, SlackFrac: 0.5})
	if !res.Converged || !res.MetTarget {
		t.Fatalf("converged=%v met=%v", res.Converged, res.MetTarget)
	}
	if tgt.reduceCalls == 0 {
		t.Fatal("never reduced overprovision")
	}
	// Final LPMR1 must sit in (T1-δ, T1]: (0.5, 1].
	if l := res.Final.LPMR1(); l <= 0.5 || l > 1 {
		t.Fatalf("final LPMR1 = %v outside (0.5, 1]", l)
	}
}

// TestAlgorithmMeasureErrorEndsRun: a failed measurement stops the
// walk and comes back as the error, with the steps taken before it.
func TestAlgorithmMeasureErrorEndsRun(t *testing.T) {
	tgt := &mockTarget{camat1: 8, camat2: 2, l1Step: 0.85, l2Step: 0.6, l1Left: 100, l2Left: 100, failAt: 3}
	res, err := Run(context.Background(), tgt, AlgorithmConfig{Grain: FineGrain})
	if !errors.Is(err, errMeasure) {
		t.Fatalf("err = %v, want the measurement's error", err)
	}
	if len(res.Steps) != 2 || res.Converged {
		t.Fatalf("steps=%d converged=%v, want the 2 steps before the failure and no convergence", len(res.Steps), res.Converged)
	}
}

func TestAlgorithmExhaustedDesignSpace(t *testing.T) {
	tgt := &mockTarget{camat1: 50, camat2: 50, l1Step: 0.99, l2Step: 0.99, l1Left: 2, l2Left: 2}
	res := runOK(t, tgt, AlgorithmConfig{Grain: FineGrain})
	if res.MetTarget {
		t.Fatal("cannot meet target with 2 weak steps")
	}
	if !res.Converged {
		t.Fatal("exhaustion should still report convergence (no further moves)")
	}
}

func TestAlgorithmMaxStepsBound(t *testing.T) {
	tgt := &mockTarget{camat1: 1e9, camat2: 1e9, l1Step: 0.999, l2Step: 0.999, l1Left: 1 << 30, l2Left: 1 << 30}
	res := runOK(t, tgt, AlgorithmConfig{Grain: FineGrain, MaxSteps: 7})
	if len(res.Steps) != 7 {
		t.Fatalf("steps = %d, want 7", len(res.Steps))
	}
	if res.Converged {
		t.Fatal("should not report convergence at step cap")
	}
}

func TestAlgorithmCoarseGrainStopsEarlier(t *testing.T) {
	mk := func() *mockTarget {
		return &mockTarget{camat1: 50, camat2: 0.01, l1Step: 0.8, l1Left: 100, l2Left: 100}
	}
	fine := runOK(t, mk(), AlgorithmConfig{Grain: FineGrain})
	coarse := runOK(t, mk(), AlgorithmConfig{Grain: CoarseGrain})
	if !fine.MetTarget || !coarse.MetTarget {
		t.Fatal("both grains should converge")
	}
	if len(coarse.Steps) >= len(fine.Steps) {
		t.Fatalf("coarse (%d steps) not cheaper than fine (%d steps)",
			len(coarse.Steps), len(fine.Steps))
	}
	// Coarse target: LPMR1 <= 10; fine: <= 1.
	if coarse.Final.LPMR1() > 10 || fine.Final.LPMR1() > 1 {
		t.Fatalf("targets missed: coarse %.3f fine %.3f",
			coarse.Final.LPMR1(), fine.Final.LPMR1())
	}
}

func TestGrainDeltas(t *testing.T) {
	if FineGrain.DeltaPct() != 1 || CoarseGrain.DeltaPct() != 10 {
		t.Fatal("wrong grain deltas")
	}
}

func TestAlgorithmRecordsThresholds(t *testing.T) {
	tgt := &mockTarget{camat1: 5, camat2: 2, l1Step: 0.5, l2Step: 0.5, l1Left: 100, l2Left: 100}
	res := runOK(t, tgt, AlgorithmConfig{Grain: FineGrain})
	for i, s := range res.Steps {
		if s.T1 <= 0 {
			t.Fatalf("step %d: T1 = %v", i, s.T1)
		}
		if s.Case == CaseBoth && !s.T2Valid {
			t.Fatalf("step %d: Case I with vacuous T2", i)
		}
	}
}
