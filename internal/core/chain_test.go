package core

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleChain() Chain {
	return Chain{
		CPIexe: 0.5,
		Fmem:   0.4,
		Layers: []Layer{
			{Name: "L1", CAMAT: 2, MR: 0.1},
			{Name: "L2", CAMAT: 15, MR: 0.3},
			{Name: "L3", CAMAT: 40, MR: 0.5},
			{Name: "MM", CAMAT: 120},
		},
	}
}

func TestChainValidate(t *testing.T) {
	if err := sampleChain().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Chain){
		func(c *Chain) { c.CPIexe = 0 },
		func(c *Chain) { c.Fmem = 1.5 },
		func(c *Chain) { c.Layers = nil },
		func(c *Chain) { c.Layers[1].CAMAT = -1 },
		func(c *Chain) { c.Layers[0].MR = 2 },
	}
	for i, mut := range bads {
		c := sampleChain()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// The bottom layer's MR is ignored, even if out of range.
	c := sampleChain()
	c.Layers[len(c.Layers)-1].MR = 9
	if err := c.Validate(); err != nil {
		t.Errorf("bottom-layer MR should be ignored: %v", err)
	}
}

// chainFromMeasurement lifts a three-layer Measurement into a Chain.
func chainFromMeasurement(m Measurement) Chain {
	return Chain{
		CPIexe: m.CPIexe,
		Fmem:   m.Fmem,
		Layers: []Layer{
			{Name: "L1", CAMAT: m.CAMAT1, MR: m.MR1},
			{Name: "L2", CAMAT: m.CAMAT2, MR: m.MR2},
			{Name: "MM", CAMAT: m.CAMAT3},
		},
	}
}

func TestChainMatchesThreeLayerFormulas(t *testing.T) {
	m := sampleMeasurement()
	ch := chainFromMeasurement(m)
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	// One derivation (analyzer.LPMR) behind both: equal bit for bit.
	for i, want := range []float64{m.LPMR1(), m.LPMR2(), m.LPMR3()} {
		if got := ch.LPMR(i); got != want {
			t.Fatalf("LPMR(%d) %v vs LPMR%d %v", i, got, i+1, want)
		}
	}
}

func TestChainFourLevels(t *testing.T) {
	c := sampleChain()
	// LPMR(3) = 120 * 0.4 * 0.1*0.3*0.5 / 0.5
	want := 120 * 0.4 * 0.1 * 0.3 * 0.5 / 0.5
	if got := c.LPMR(3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LPMR(3) = %v, want %v", got, want)
	}
	rs := c.LPMRs()
	if len(rs) != 4 {
		t.Fatalf("LPMRs len %d", len(rs))
	}
}

func TestChainOutOfRange(t *testing.T) {
	c := sampleChain()
	if c.LPMR(-1) != 0 || c.LPMR(99) != 0 {
		t.Fatal("out-of-range LPMR should be 0")
	}
}

func TestBottleneckLayer(t *testing.T) {
	c := sampleChain()
	// LPMRs: L1: 2*0.8=1.6; L2: 15*0.8*0.1=1.2; L3: 40*0.8*0.03=0.96;
	// MM: 120*0.8*0.015=1.44. Max is L1.
	if got := c.BottleneckLayer(); got != 0 {
		t.Fatalf("bottleneck = %d (%v)", got, c.LPMRs())
	}
	c.Layers[2].CAMAT = 500 // L3 now dominates
	if got := c.BottleneckLayer(); got != 2 {
		t.Fatalf("bottleneck = %d (%v)", got, c.LPMRs())
	}
}

func TestSensitivitiesMatchFiniteDifferences(t *testing.T) {
	f := func(h, ch, pmr, pamp, cm float64) bool {
		abs := func(x, cap float64) float64 { return math.Mod(math.Abs(x), cap) + 0.05 }
		c := CAMAT{
			H:    abs(h, 10),
			CH:   abs(ch, 8),
			PMR:  math.Mod(math.Abs(pmr), 1),
			PAMP: abs(pamp, 100),
			CM:   abs(cm, 8),
		}
		s := Sensitivities(c)
		const eps = 1e-6
		fd := func(mut func(*CAMAT, float64)) float64 {
			up, dn := c, c
			mut(&up, eps)
			mut(&dn, -eps)
			return (up.Value() - dn.Value()) / (2 * eps)
		}
		checks := []struct{ got, want float64 }{
			{s.DH, fd(func(x *CAMAT, d float64) { x.H += d })},
			{s.DCH, fd(func(x *CAMAT, d float64) { x.CH += d })},
			{s.DPMR, fd(func(x *CAMAT, d float64) { x.PMR += d })},
			{s.DPAMP, fd(func(x *CAMAT, d float64) { x.PAMP += d })},
			{s.DCM, fd(func(x *CAMAT, d float64) { x.CM += d })},
		}
		for _, chk := range checks {
			scale := math.Max(1, math.Abs(chk.want))
			if math.Abs(chk.got-chk.want)/scale > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivitySigns(t *testing.T) {
	s := Sensitivities(CAMAT{H: 3, CH: 2, PMR: 0.1, PAMP: 20, CM: 2})
	if s.DH <= 0 || s.DPMR <= 0 || s.DPAMP <= 0 {
		t.Fatal("H/pMR/pAMP derivatives must be positive")
	}
	if s.DCH >= 0 || s.DCM >= 0 {
		t.Fatal("concurrency derivatives must be negative")
	}
}

func TestBestLeverPicksDominantTerm(t *testing.T) {
	// Hit-dominated: the hit term H/CH dwarfs the miss term, so the best
	// 1% lever is H or CH.
	hitHeavy := CAMAT{H: 3, CH: 1, PMR: 0.001, PAMP: 2, CM: 4}
	if lever := BestLever(hitHeavy); lever != "H" && lever != "CH" {
		t.Fatalf("hit-heavy lever = %s", lever)
	}
	// Miss-dominated: pure misses dwarf the hit term.
	missHeavy := CAMAT{H: 1, CH: 4, PMR: 0.5, PAMP: 200, CM: 1}
	if lever := BestLever(missHeavy); lever == "H" || lever == "CH" {
		t.Fatalf("miss-heavy lever = %s", lever)
	}
}

func TestBestLeverZeroGuards(t *testing.T) {
	// Degenerate all-zero parameters must not panic or return empty.
	if BestLever(CAMAT{}) == "" {
		t.Fatal("empty lever")
	}
}
