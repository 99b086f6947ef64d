package core

import (
	"fmt"

	"lpm/internal/analyzer"
)

// This file generalises the three-layer LPM formulation to an arbitrary
// hierarchy depth — the paper notes that "the extension to additional
// cache levels is straightforward" (§III); Chain makes it concrete. It
// also provides the sensitivity analysis over the five C-AMAT parameters
// ("five dimensions for memory system optimization", §II).

// Layer is one level of a memory hierarchy as the chain model sees it.
type Layer struct {
	// Name labels the layer ("L1", "L2", "L3", "MM").
	Name string
	// CAMAT is the layer's concurrent average memory access time.
	CAMAT float64
	// MR is the fraction of this layer's accesses forwarded to the next
	// layer (primary-miss ratio); the bottom layer's MR is ignored.
	MR float64
}

// Chain is a full hierarchy: computing parameters plus the layers from
// L1 down to main memory.
type Chain struct {
	// CPIexe and Fmem are the computing-side parameters of Eq. (5).
	CPIexe, Fmem float64
	// Layers runs from L1 (index 0) to the bottom layer.
	Layers []Layer
}

// Validate reports the first problem with the chain, or nil.
func (c Chain) Validate() error {
	if c.CPIexe <= 0 {
		return fmt.Errorf("core: chain CPIexe %v", c.CPIexe)
	}
	if c.Fmem < 0 || c.Fmem > 1 {
		return fmt.Errorf("core: chain fmem %v", c.Fmem)
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("core: empty chain")
	}
	for i, l := range c.Layers {
		if l.CAMAT < 0 {
			return fmt.Errorf("core: layer %d (%s) C-AMAT %v", i, l.Name, l.CAMAT)
		}
		if i < len(c.Layers)-1 && (l.MR < 0 || l.MR > 1) {
			return fmt.Errorf("core: layer %d (%s) MR %v", i, l.Name, l.MR)
		}
	}
	return nil
}

// LPMR returns the matching ratio of layer i (0-based: LPMR(0) is the
// paper's LPMR1), generalising Eqs. (9)-(11):
//
//	LPMR_{i+1} = C-AMAT_{i+1} · f_mem · MR_1 ··· MR_i / CPI_exe
//
// It is analyzer.LPMR over the layers above i, so LPMR(k) equals the
// Measurement's LPMR(k+1) bit for bit on the same inputs.
func (c Chain) LPMR(i int) float64 {
	if i < 0 || i >= len(c.Layers) {
		return 0
	}
	mrs := make([]float64, i)
	for j := range mrs {
		mrs[j] = c.Layers[j].MR
	}
	return analyzer.LPMR(c.Layers[i].CAMAT, c.Fmem, c.CPIexe, mrs...)
}

// LPMRs returns every layer's matching ratio.
func (c Chain) LPMRs() []float64 {
	out := make([]float64, len(c.Layers))
	for i := range c.Layers {
		out[i] = c.LPMR(i)
	}
	return out
}

// BottleneckLayer returns the index of the layer with the largest
// matching ratio — the hierarchy level most out of balance with the
// computation, the natural first optimization target.
func (c Chain) BottleneckLayer() int {
	best, bestV := 0, -1.0
	for i := range c.Layers {
		if v := c.LPMR(i); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Sensitivity reports the partial derivative of C-AMAT (Eq. 2) with
// respect to each of its five parameters, evaluated at c — the paper's
// "five dimensions for memory system optimization". Negative entries
// (CH, CM) mean increasing the parameter lowers C-AMAT.
type Sensitivity struct {
	DH, DCH, DPMR, DPAMP, DCM float64
}

// Sensitivities evaluates the gradient of Eq. (2) at the given
// parameters. Zero concurrencies are treated as 1, mirroring
// CAMAT.Value.
func Sensitivities(c CAMAT) Sensitivity {
	ch, cm := c.CH, c.CM
	if ch <= 0 {
		ch = 1
	}
	if cm <= 0 {
		cm = 1
	}
	return Sensitivity{
		DH:    1 / ch,
		DCH:   -c.H / (ch * ch),
		DPMR:  c.PAMP / cm,
		DPAMP: c.PMR / cm,
		DCM:   -c.PMR * c.PAMP / (cm * cm),
	}
}

// BestLever returns the parameter whose unit relative improvement (1%
// change in the favourable direction) yields the largest C-AMAT
// reduction, as a parameter name: "H", "CH", "pMR", "pAMP" or "CM". It
// is the model's answer to "which knob next?".
func BestLever(c CAMAT) string {
	s := Sensitivities(c)
	// Relative moves: decreasing H/pMR/pAMP by 1% of their value,
	// increasing CH/CM by 1%.
	ch, cm := c.CH, c.CM
	if ch <= 0 {
		ch = 1
	}
	if cm <= 0 {
		cm = 1
	}
	gains := map[string]float64{
		"H":    s.DH * c.H * 0.01,
		"CH":   -s.DCH * ch * 0.01,
		"pMR":  s.DPMR * c.PMR * 0.01,
		"pAMP": s.DPAMP * c.PAMP * 0.01,
		"CM":   -s.DCM * cm * 0.01,
	}
	best, bestV := "H", -1.0
	for _, name := range []string{"H", "CH", "pMR", "pAMP", "CM"} {
		if gains[name] > bestV {
			best, bestV = name, gains[name]
		}
	}
	return best
}
