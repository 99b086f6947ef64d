package phase

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceProperties(t *testing.T) {
	a := Signature{1, 2, 3}
	if a.Distance(a) != 0 {
		t.Fatal("self distance not zero")
	}
	b := Signature{2, 4, 6}
	if d1, d2 := a.Distance(b), b.Distance(a); d1 != d2 {
		t.Fatalf("not symmetric: %v vs %v", d1, d2)
	}
	if a.Distance(Signature{1, 2}) != 1 {
		t.Fatal("length mismatch not maximal")
	}
	if (Signature{}).Distance(Signature{}) != 1 {
		t.Fatal("empty signatures should be maximally distant")
	}
	if (Signature{0, 0}).Distance(Signature{0, 0}) != 0 {
		t.Fatal("all-zero identical signatures should be distance 0")
	}
}

func TestDistanceBoundedProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		s1 := Signature{math.Abs(a[0]), math.Abs(a[1]), math.Abs(a[2]), math.Abs(a[3]), math.Abs(a[4]), math.Abs(a[5])}
		s2 := Signature{math.Abs(b[0]), math.Abs(b[1]), math.Abs(b[2]), math.Abs(b[3]), math.Abs(b[4]), math.Abs(b[5])}
		d := s1.Distance(s2)
		return d >= 0 && d <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorSeparatesDistinctBehaviours(t *testing.T) {
	d := NewDetector(0.10)
	memBound := FromLPM(0.45, 0.30, 0.20, 1.2, 3.0, 0.3)
	compute := FromLPM(0.20, 0.01, 0.002, 2.5, 1.0, 2.8)
	id1 := d.Classify(memBound)
	id2 := d.Classify(compute)
	if id1 == id2 {
		t.Fatal("distinct behaviours merged")
	}
	// Small perturbations of each stay in their phase.
	jitter := FromLPM(0.44, 0.31, 0.21, 1.25, 2.9, 0.31)
	if got := d.Classify(jitter); got != id1 {
		t.Fatalf("jittered mem-bound classified as %d, want %d", got, id1)
	}
	if d.Phases() != 2 {
		t.Fatalf("phases = %d", d.Phases())
	}
}

func TestDetectorCentroidTracksMembers(t *testing.T) {
	d := NewDetector(0.5)
	id := d.Classify(Signature{1, 1})
	d.Classify(Signature{3, 3})
	c := d.phases[id].centroid
	if math.Abs(c[0]-2) > 1e-12 || math.Abs(c[1]-2) > 1e-12 {
		t.Fatalf("centroid = %v, want [2 2]", c)
	}
}

func TestDetectorMaxPhases(t *testing.T) {
	d := NewDetector(0.0001)
	d.MaxPhases = 3
	// Wildly different signatures, more than the table can hold.
	for i := 1; i <= 10; i++ {
		d.Classify(Signature{float64(i * i * 100), 1, 1})
	}
	if d.Phases() > 3 {
		t.Fatalf("phases = %d exceeds cap", d.Phases())
	}
}
