package phase_test

import (
	"testing"

	"lpm/internal/phase"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// TestPhaseDetectionOnSimulatedIntervals drives a two-phase workload
// through the full simulator, measures per-interval signatures with the
// analyzers (exactly what an online LPM deployment would do), and checks
// that the detector recovers the phase structure and flags the changes
// between alternating dwells — the classification the adaptive
// timeseries windows split and merge on.
func TestPhaseDetectionOnSimulatedIntervals(t *testing.T) {
	mem := trace.MustProfile("429.mcf")
	cpu := trace.MustProfile("444.namd")
	const dwell = 40000
	gen := trace.NewPhased("2phase", []trace.Profile{mem, cpu},
		[][]float64{{0, 1}, {1, 0}}, dwell, 5)

	cfg := chip.SingleCore("429.mcf")
	cfg.Cores[0].Workload = gen
	ch := chip.New(cfg)

	det := phase.NewDetector(0.15)
	var truth []int // generator phase at each interval end
	var assigned []int
	changes := 0

	// 14 intervals of one dwell each (interval boundaries aligned with
	// phase boundaries, the easy case an online deployment approximates).
	for k := 1; k <= 14; k++ {
		truth = append(truth, gen.Phase())
		// Retired() counts from the last ResetCounters, so each interval
		// targets exactly one dwell.
		ch.RunUntilRetired(dwell, 200_000_000)
		m := ch.Measure(0, 1)
		l1 := ch.Snapshot().Cores[0].L1
		sig := phase.FromLPM(m.Fmem, m.MR1, m.PMR1, l1.CH(), l1.CM(), m.IPC)
		id := det.Classify(sig)
		if len(assigned) > 0 && id != assigned[len(assigned)-1] {
			changes++
		}
		assigned = append(assigned, id)
		ch.ResetCounters()
	}

	if det.Phases() < 2 {
		t.Fatalf("detector found %d phases, want >= 2 (%v)", det.Phases(), assigned)
	}
	if det.Phases() > 4 {
		t.Fatalf("detector fragmented into %d phases (%v)", det.Phases(), assigned)
	}
	// Intervals with the same ground-truth phase must mostly agree, and
	// the two ground-truth phases must not map to a single detected
	// phase.
	agree := 0
	crossSame := 0
	for i := 0; i < len(truth); i++ {
		for j := i + 1; j < len(truth); j++ {
			if truth[i] == truth[j] && assigned[i] == assigned[j] {
				agree++
			}
			if truth[i] != truth[j] && assigned[i] == assigned[j] {
				crossSame++
			}
		}
	}
	if agree == 0 {
		t.Fatalf("no within-phase agreement: truth=%v assigned=%v", truth, assigned)
	}
	if crossSame > agree {
		t.Fatalf("phases not separated: truth=%v assigned=%v", truth, assigned)
	}
	if changes == 0 {
		t.Fatal("no phase changes detected across alternating dwells")
	}
}
