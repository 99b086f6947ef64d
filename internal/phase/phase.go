// Package phase implements lightweight online phase detection for the
// LPM reproduction. The paper's observation 3 (§I) — "programs have
// periodic behaviors, and their data access patterns are predictable;
// with a set of lightweight counters, we are able to deploy proper
// optimization techniques to timely adapt" — is the premise of the
// online LPM algorithm. This package provides the missing machinery:
//
//   - Signature: an interval's behaviour vector, built from the same
//     counters the C-AMAT analyzer already maintains;
//   - Detector: an online classifier that matches each new interval
//     against known phases (by normalised Manhattan distance) and opens
//     a new phase when nothing matches — in the spirit of SimPoint-style
//     phase classification, but cheap enough to run every interval.
package phase

import "math"

// Signature is one measurement interval's behaviour vector. Any
// non-negative features work as long as their meaning is stable across
// intervals; FromLPM builds the standard one.
type Signature []float64

// FromLPM builds the standard signature from LPM-relevant interval
// measurements: memory intensity, L1 miss rate, pure-miss rate, hit and
// pure-miss concurrency, and IPC.
func FromLPM(fmem, mr1, pmr1, ch, cm, ipc float64) Signature {
	return Signature{fmem, mr1, pmr1, ch, cm, ipc}
}

// Distance returns the normalised Manhattan distance between two
// signatures in [0, 1]-ish range: per-dimension |a-b|/(|a|+|b|),
// averaged. Dissimilar lengths are maximally distant.
func (s Signature) Distance(o Signature) float64 {
	if len(s) != len(o) || len(s) == 0 {
		return 1
	}
	total := 0.0
	for i := range s {
		den := math.Abs(s[i]) + math.Abs(o[i])
		if den == 0 {
			continue // both zero: identical in this dimension
		}
		total += math.Abs(s[i]-o[i]) / den
	}
	return total / float64(len(s))
}

// clone copies a signature.
func (s Signature) clone() Signature { return append(Signature(nil), s...) }

// phaseState is one known phase's running centroid.
type phaseState struct {
	centroid Signature
	count    uint64
}

// observe folds a new member signature into the centroid.
func (p *phaseState) observe(s Signature) {
	p.count++
	w := 1 / float64(p.count)
	for i := range p.centroid {
		p.centroid[i] += (s[i] - p.centroid[i]) * w
	}
}

// Detector classifies interval signatures into phases online.
type Detector struct {
	// Threshold is the maximum distance at which an interval still
	// belongs to an existing phase; larger values merge behaviour more
	// aggressively. Zero means 0.10.
	Threshold float64
	// MaxPhases bounds the table (oldest-by-membership phase is merged
	// into its nearest neighbour beyond this); zero means 32.
	MaxPhases int

	phases []phaseState
}

// NewDetector returns a detector with the given threshold (0 for the
// default 0.10).
func NewDetector(threshold float64) *Detector {
	return &Detector{Threshold: threshold}
}

func (d *Detector) threshold() float64 {
	if d.Threshold <= 0 {
		return 0.10
	}
	return d.Threshold
}

func (d *Detector) maxPhases() int {
	if d.MaxPhases <= 0 {
		return 32
	}
	return d.MaxPhases
}

// Phases returns the number of phases known so far.
func (d *Detector) Phases() int { return len(d.phases) }

// Classify assigns the signature to a phase, creating a new phase when
// nothing is within the threshold, and returns the phase id.
func (d *Detector) Classify(s Signature) int {
	best, bestD := -1, math.Inf(1)
	for i := range d.phases {
		if dist := d.phases[i].centroid.Distance(s); dist < bestD {
			best, bestD = i, dist
		}
	}
	if best >= 0 && bestD <= d.threshold() {
		d.phases[best].observe(s)
		return best
	}
	if len(d.phases) >= d.maxPhases() {
		// Table full: absorb into the nearest existing phase.
		d.phases[best].observe(s)
		return best
	}
	d.phases = append(d.phases, phaseState{centroid: s.clone(), count: 1})
	return len(d.phases) - 1
}
