package core

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMeasurement returns a self-consistent measurement: CAMAT1 is the
// Eq. (4) recursion of the L1 parameters and CAMAT2, so the Eq. (12) and
// Eq. (13) stall expressions agree exactly.
func sampleMeasurement() Measurement {
	m := Measurement{
		CPIexe:       0.8,
		Fmem:         0.4,
		OverlapRatio: 0.3,
		CAMAT2:       15,
		CAMAT3:       60,
		MR1:          0.10,
		MR2:          0.30,
		PMR1:         0.04,
		H1:           3,
		CH1:          2,
		PAMP1:        12,
		AMP1:         18,
		Cm1:          3,
		CM1:          1.5,
	}
	m.CAMAT1 = RecursiveCAMAT(m.H1, m.CH1, m.PMR1, m.Eta1(), m.CAMAT2)
	return m
}

func TestLPMRFormulas(t *testing.T) {
	m := sampleMeasurement()
	if got, want := m.LPMR1(), m.CAMAT1*m.Fmem/m.CPIexe; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LPMR1 = %v want %v", got, want)
	}
	if got, want := m.LPMR2(), m.CAMAT2*m.Fmem*m.MR1/m.CPIexe; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LPMR2 = %v want %v", got, want)
	}
	if got, want := m.LPMR3(), m.CAMAT3*m.Fmem*m.MR1*m.MR2/m.CPIexe; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LPMR3 = %v want %v", got, want)
	}
}

func TestLPMRZeroCPIexe(t *testing.T) {
	var m Measurement
	if m.LPMR1() != 0 || m.LPMR2() != 0 || m.LPMR3() != 0 {
		t.Fatal("zero CPIexe must yield zero LPMRs, not NaN")
	}
}

func TestStallEq7EqualsEq12(t *testing.T) {
	// Eq. (12) is Eq. (7) rewritten through Eq. (9); they must agree for
	// any inputs.
	f := func(cpi, fmem, ov, camat1 float64) bool {
		m := Measurement{
			CPIexe:       math.Mod(math.Abs(cpi), 10) + 0.1,
			Fmem:         math.Mod(math.Abs(fmem), 1),
			OverlapRatio: math.Mod(math.Abs(ov), 1),
			CAMAT1:       math.Mod(math.Abs(camat1), 100),
		}
		return math.Abs(m.StallEq7()-m.StallEq12()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStallEq13MatchesEq12OnConsistentMeasurement(t *testing.T) {
	m := sampleMeasurement()
	if d := math.Abs(m.StallEq12() - m.StallEq13()); d > 1e-9 {
		t.Fatalf("Eq12 %.9f vs Eq13 %.9f (diff %g)", m.StallEq12(), m.StallEq13(), d)
	}
}

func TestStallEq13MatchesEq12Property(t *testing.T) {
	f := func(h1, ch1, pmr1frac, mrScale, pamp1, amp1, cm1c, cm1p, camat2, cpi, fmem, ov float64) bool {
		abs := func(x, cap float64) float64 { return math.Mod(math.Abs(x), cap) + 0.01 }
		m := Measurement{
			CPIexe:       abs(cpi, 5),
			Fmem:         math.Mod(math.Abs(fmem), 1),
			OverlapRatio: math.Mod(math.Abs(ov), 1),
			CAMAT2:       abs(camat2, 200),
			H1:           abs(h1, 10),
			CH1:          abs(ch1, 8),
			PAMP1:        abs(pamp1, 100),
			AMP1:         abs(amp1, 100),
			Cm1:          abs(cm1c, 16),
			CM1:          abs(cm1p, 16),
		}
		m.PMR1 = math.Mod(math.Abs(pmr1frac), 1)
		// MR1 >= PMR1 (pure misses are a subset).
		m.MR1 = m.PMR1 + math.Mod(math.Abs(mrScale), 1-m.PMR1+1e-9)
		if m.MR1 <= 0 {
			return true
		}
		m.CAMAT1 = RecursiveCAMAT(m.H1, m.CH1, m.PMR1, m.Eta1(), m.CAMAT2)
		return math.Abs(m.StallEq12()-m.StallEq13()) < 1e-6*(1+m.StallEq12())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestT1MeetsStallTarget(t *testing.T) {
	// If LPMR1 == T1(Δ), the modelled stall is exactly Δ% of CPIexe.
	m := sampleMeasurement()
	for _, delta := range []float64{1, 10} {
		t1 := m.T1(delta)
		scaled := m
		scaled.CAMAT1 = t1 * m.CPIexe / m.Fmem // force LPMR1 == T1
		if math.Abs(scaled.LPMR1()-t1) > 1e-9 {
			t.Fatalf("setup: LPMR1 %v != T1 %v", scaled.LPMR1(), t1)
		}
		want := delta / 100 * m.CPIexe
		if got := scaled.StallEq12(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("delta %v%%: stall %v, want %v", delta, got, want)
		}
	}
}

func TestT2MeetsStallTarget(t *testing.T) {
	// If LPMR2 == T2(Δ) (holding the L1-local term fixed), Eq. (13)
	// evaluates to Δ% of CPIexe.
	m := sampleMeasurement()
	for _, delta := range []float64{1, 10} {
		t2, ok := m.T2(delta)
		if !ok {
			t.Fatal("T2 unexpectedly vacuous")
		}
		scaled := m
		scaled.CAMAT2 = t2 * m.CPIexe / (m.Fmem * m.MR1) // force LPMR2 == T2
		want := delta / 100 * m.CPIexe
		if got := scaled.StallEq13(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("delta %v%%: Eq13 stall %v, want %v", delta, got, want)
		}
	}
}

func TestT2VacuousWhenEtaZero(t *testing.T) {
	m := sampleMeasurement()
	m.AMP1 = 0 // no misses: η = 0, the L2 condition cannot bind
	if _, ok := m.T2(1); ok {
		t.Fatal("T2 should be vacuous with zero eta")
	}
}

// TestT2NegativeIsReturnedValid: when the L1-local term of Eq. (15)
// alone exceeds the stall budget, the threshold is negative and comes
// back valid (ok=true), not vacuous.
func TestT2NegativeIsReturnedValid(t *testing.T) {
	m := sampleMeasurement()
	l1Term := m.H1 * m.Fmem / (m.CH1 * m.CPIexe)
	budget := 0.01 / (1 - m.OverlapRatio)
	if l1Term <= budget {
		t.Fatalf("setup: L1 term %v within the 1%% budget %v", l1Term, budget)
	}
	t2, ok := m.T2(1)
	if !ok || t2 >= 0 {
		t.Fatalf("T2(1) = %v, %v; want a negative threshold with ok=true", t2, ok)
	}
	if want := (budget - l1Term) / m.Eta(); math.Abs(t2-want) > 1e-12 {
		t.Fatalf("T2(1) = %v, want %v", t2, want)
	}
}

func TestEtaDecomposition(t *testing.T) {
	m := sampleMeasurement()
	want := m.Eta1() * m.PMR1 / m.MR1
	if math.Abs(m.Eta()-want) > 1e-12 {
		t.Fatalf("eta = %v want %v", m.Eta(), want)
	}
	if m.Eta() <= 0 || m.Eta() >= 1 {
		t.Fatalf("sample eta = %v, expected in (0,1) per the paper", m.Eta())
	}
}

func TestEtaZeroMR(t *testing.T) {
	m := sampleMeasurement()
	m.MR1 = 0
	if m.Eta() != 0 {
		t.Fatal("eta with zero MR1 must be 0")
	}
}

func TestHigherOverlapLowersStallAndRaisesT1(t *testing.T) {
	m := sampleMeasurement()
	lo, hi := m, m
	lo.OverlapRatio, hi.OverlapRatio = 0.1, 0.9
	if lo.StallEq12() <= hi.StallEq12() {
		t.Fatal("more overlap must reduce stall")
	}
	if lo.T1(1) >= hi.T1(1) {
		t.Fatal("more overlap must relax T1")
	}
}

func TestMeasurementString(t *testing.T) {
	if sampleMeasurement().String() == "" {
		t.Fatal("empty string")
	}
}
