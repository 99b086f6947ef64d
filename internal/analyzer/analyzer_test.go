package analyzer

import (
	"math"
	"testing"
	"testing/quick"
)

// driveFig1 replays the exact schedule of the paper's Fig. 1 through an
// analyzer: five accesses, three-cycle hit operations, access 3 a miss
// with penalty cycles 6-8 (two of them pure), access 4 a miss whose single
// penalty cycle (6) is masked by access 5's hit activity.
func driveFig1() Params {
	a := New("L1")
	type ev struct {
		start, missAt, done uint64 // missAt 0 => hit
	}
	accs := []ev{
		{start: 1, done: 4},            // A1 hit, cycles 1-3
		{start: 1, done: 4},            // A2 hit, cycles 1-3
		{start: 3, missAt: 6, done: 9}, // A3 miss, hit 3-5, miss 6-8
		{start: 3, missAt: 6, done: 7}, // A4 miss, hit 3-5, miss 6
		{start: 4, done: 7},            // A5 hit, cycles 4-6
	}
	recs := make([]*Access, len(accs))
	for t := uint64(1); t <= 8; t++ {
		// Completions and transitions scheduled for the start of cycle t.
		for i, e := range accs {
			if e.missAt == t {
				a.ToMiss(recs[i], t)
			}
			if e.done == t {
				a.Done(recs[i], t)
			}
		}
		for i, e := range accs {
			if e.start == t {
				recs[i] = a.Start(t)
			}
		}
		a.Tick()
	}
	// A3 completes after the last counted cycle.
	a.Done(recs[2], 9)
	return a.Snapshot()
}

func TestFig1GoldenExample(t *testing.T) {
	p := driveFig1()

	if p.Accesses != 5 || p.Completed != 5 {
		t.Fatalf("accesses = %d/%d, want 5/5", p.Accesses, p.Completed)
	}
	if p.Misses != 2 {
		t.Fatalf("misses = %d, want 2", p.Misses)
	}
	if p.PureMisses != 1 {
		t.Fatalf("pure misses = %d, want 1 (only access 3)", p.PureMisses)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("H", p.H(), 3)
	check("CH", p.CH(), 2.5) // (2*2 + 4*1 + 3*2 + 1*1) / 6
	check("CM", p.CM(), 1)
	check("pAMP", p.PAMP(), 2)
	check("pMR", p.PMR(), 0.2)
	check("MR", p.MR(), 0.4)
	check("AMP", p.AMP(), 2) // (3 + 1)/2
	check("C-AMAT", p.CAMAT(), 1.6)
	check("AMAT", p.AMAT(), 3.8)
	check("APC", p.APC(), 5.0/8.0)
	check("1/APC == C-AMAT", 1/p.APC(), p.CAMAT())
}

func TestFig1EtaValue(t *testing.T) {
	p := driveFig1()
	// η = (pAMP/AMP) * (Cm/CM) = (2/2) * ((4/3)/1) is core.Eta1 over
	// these four ingredients; Cm = 4 miss access-cycles / 3 miss-active
	// cycles.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"pAMP", p.PAMP(), 2},
		{"AMP", p.AMP(), 2},
		{"Cm", p.Cm(), 4.0 / 3.0},
		{"CM", p.CM(), 1},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestEmptyParamsAreZeroNotNaN(t *testing.T) {
	var p Params
	var h Hierarchy
	for name, v := range map[string]float64{
		"H": p.H(), "CH": p.CH(), "CM": p.CM(), "Cm": p.Cm(),
		"MR": p.MR(), "pMR": p.PMR(), "AMP": p.AMP(), "pAMP": p.PAMP(),
		"APC": p.APC(), "CAMAT": p.CAMAT(), "AMAT": p.AMAT(),
		"Hierarchy.Fmem": h.Fmem(), "Hierarchy.MR(0)": h.MR(0),
		"Hierarchy.MemCAMAT": h.MemCAMAT(),
		"LPMR(cpiExe=0)":     LPMR(h.MemCAMAT(), h.Fmem(), 0, h.MR(0), h.MR(1)),
		"LPMR(cpiExe=1)":     LPMR(h.MemCAMAT(), h.Fmem(), 1, h.MR(0), h.MR(1)),
	} {
		if v != 0 { // also catches NaN and ±Inf
			t.Errorf("%s = %v on empty counters, want 0", name, v)
		}
	}
}

// LPMR generalises Eqs. (9)-(11) to any depth: the ratio of a layer
// below an L3 carries the request rates of the three layers above it.
func TestLPMRFourLevels(t *testing.T) {
	want := 120 * 0.4 * 0.1 * 0.3 * 0.5 / 0.5
	if got := LPMR(120, 0.4, 0.5, 0.1, 0.3, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LPMR over three request rates = %v, want %v", got, want)
	}
}

func TestAllHitsNoPureMisses(t *testing.T) {
	a := New("L1")
	var recs []*Access
	// Three fully overlapping hits, 2-cycle hit latency.
	for t := uint64(1); t <= 2; t++ {
		if t == 1 {
			for i := 0; i < 3; i++ {
				recs = append(recs, a.Start(t))
			}
		}
		a.Tick()
	}
	for _, r := range recs {
		a.Done(r, 3)
	}
	p := a.Snapshot()
	if p.Misses != 0 || p.PureMisses != 0 {
		t.Fatal("hits misclassified as misses")
	}
	if p.CH() != 3 {
		t.Fatalf("CH = %v, want 3", p.CH())
	}
	if p.CAMAT() != 2.0/3.0 {
		t.Fatalf("C-AMAT = %v, want 2/3", p.CAMAT())
	}
}

func TestIsolatedMissIsPure(t *testing.T) {
	a := New("L1")
	r := a.Start(1)
	a.Tick() // cycle 1: hit phase
	a.ToMiss(r, 2)
	a.Tick() // cycle 2: pure miss
	a.Tick() // cycle 3: pure miss
	a.Done(r, 4)
	p := a.Snapshot()
	if p.PureMisses != 1 {
		t.Fatalf("pure misses = %d", p.PureMisses)
	}
	if !r.Pure() {
		t.Fatal("access not marked pure")
	}
	if p.PAMP() != 2 || p.AMP() != 2 {
		t.Fatalf("pAMP=%v AMP=%v, want 2/2", p.PAMP(), p.AMP())
	}
	// C-AMAT: H/CH = 1/1; pMR*pAMP/CM = 1*2/1 = 2; total 3 = AMAT.
	if p.CAMAT() != 3 || p.AMAT() != 3 {
		t.Fatalf("CAMAT=%v AMAT=%v, want 3/3", p.CAMAT(), p.AMAT())
	}
}

func TestMaskedMissIsNotPure(t *testing.T) {
	a := New("L1")
	m := a.Start(1)
	a.Tick() // cycle 1: m in hit phase
	a.ToMiss(m, 2)
	h := a.Start(2) // a hit overlaps the entire miss window
	a.Tick()        // cycle 2: hit activity masks the miss
	a.Done(m, 3)
	a.Done(h, 3)
	p := a.Snapshot()
	if p.Misses != 1 {
		t.Fatalf("misses = %d", p.Misses)
	}
	if p.PureMisses != 0 {
		t.Fatal("masked miss counted as pure")
	}
	if p.PureCycles != 0 {
		t.Fatal("pure cycles counted despite hit activity")
	}
}

func TestResetCountersPreservesInFlight(t *testing.T) {
	a := New("L1")
	r := a.Start(1)
	a.Tick()
	a.ToMiss(r, 2)
	a.Tick()
	a.ResetCounters()
	if a.InFlight() != 1 {
		t.Fatalf("in-flight = %d after reset", a.InFlight())
	}
	a.Tick() // cycle 3: still outstanding, pure
	a.Done(r, 4)
	p := a.Snapshot()
	if p.PureCycles != 1 {
		t.Fatalf("pure cycles after reset = %d, want 1", p.PureCycles)
	}
	if p.Misses != 1 {
		t.Fatalf("misses after reset = %d, want 1", p.Misses)
	}
	if p.Accesses != 0 {
		t.Fatalf("accesses after reset = %d, want 0 (started before reset)", p.Accesses)
	}
}

func TestToMissTwicePanics(t *testing.T) {
	a := New("L1")
	r := a.Start(1)
	a.ToMiss(r, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.ToMiss(r, 3)
}

func TestMissSetSwapRemoveKeepsIndices(t *testing.T) {
	a := New("L1")
	// Three concurrent misses; complete them in an order that exercises
	// the swap-remove bookkeeping.
	r1 := a.Start(1)
	r2 := a.Start(1)
	r3 := a.Start(1)
	a.Tick()
	a.ToMiss(r1, 2)
	a.ToMiss(r2, 2)
	a.ToMiss(r3, 2)
	a.Tick() // pure cycle with 3 outstanding
	a.Done(r1, 3)
	a.Tick()
	a.Done(r3, 4)
	a.Tick()
	a.Done(r2, 5)
	p := a.Snapshot()
	if p.Misses != 3 || p.PureMisses != 3 {
		t.Fatalf("misses=%d pure=%d, want 3/3", p.Misses, p.PureMisses)
	}
	if p.MissPenaltySum != 1+3+2 {
		t.Fatalf("penalty sum = %d, want 6", p.MissPenaltySum)
	}
	if a.InFlight() != 0 {
		t.Fatalf("in-flight = %d", a.InFlight())
	}
}

// randomAccess describes a scripted access for the property driver.
type randomAccess struct {
	Start   uint16
	HitLat  uint8
	Miss    bool
	Penalty uint8
}

// driveSchedule replays a set of scripted accesses through an analyzer and
// returns the drained snapshot.
func driveSchedule(accs []randomAccess) Params {
	a := New("prop")
	type live struct {
		rec    *Access
		missAt uint64
		doneAt uint64
	}
	lives := make([]live, len(accs))
	var horizon uint64
	for i, ac := range accs {
		start := uint64(ac.Start) + 1
		hitLat := uint64(ac.HitLat%7) + 1
		missAt := uint64(0)
		doneAt := start + hitLat
		if ac.Miss {
			missAt = start + hitLat
			doneAt = missAt + uint64(ac.Penalty%29) + 1
		}
		lives[i] = live{missAt: missAt, doneAt: doneAt}
		if doneAt > horizon {
			horizon = doneAt
		}
		_ = i
	}
	for t := uint64(1); t <= horizon; t++ {
		for i := range lives {
			if lives[i].missAt == t {
				a.ToMiss(lives[i].rec, t)
			}
			if lives[i].doneAt == t {
				a.Done(lives[i].rec, t)
			}
		}
		for i, ac := range accs {
			if uint64(ac.Start)+1 == t {
				lives[i].rec = a.Start(t)
			}
		}
		if t < horizon { // last "cycle" only processes completions
			a.Tick()
		}
	}
	return a.Snapshot()
}

func TestPropertyCAMATEqualsInverseAPC(t *testing.T) {
	f := func(accs []randomAccess) bool {
		if len(accs) == 0 || len(accs) > 64 {
			return true
		}
		p := driveSchedule(accs)
		if p.Completed != uint64(len(accs)) {
			return false
		}
		if p.ActiveCycles == 0 {
			return true
		}
		return math.Abs(p.CAMAT()-1/p.APC()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCAMATNeverExceedsAMAT(t *testing.T) {
	f := func(accs []randomAccess) bool {
		if len(accs) == 0 || len(accs) > 64 {
			return true
		}
		p := driveSchedule(accs)
		return p.CAMAT() <= p.AMAT()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPureSubsetOfMisses(t *testing.T) {
	f := func(accs []randomAccess) bool {
		if len(accs) == 0 || len(accs) > 64 {
			return true
		}
		p := driveSchedule(accs)
		return p.PureMisses <= p.Misses &&
			p.PureCycles <= p.MissActiveCycles &&
			p.PureAccessCycles <= p.MissAccessCycles &&
			p.PMR() <= p.MR()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMissAccountingConsistent(t *testing.T) {
	// With a consistent driver, the per-miss penalty sum equals the sum of
	// outstanding-miss populations over miss-active cycles.
	f := func(accs []randomAccess) bool {
		if len(accs) == 0 || len(accs) > 64 {
			return true
		}
		p := driveSchedule(accs)
		return p.MissAccessCycles == p.MissPenaltySum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyActiveCyclesDecomposition(t *testing.T) {
	// active = hit-active + pure: every active cycle either has hit
	// activity or is a pure-miss cycle.
	f := func(accs []randomAccess) bool {
		if len(accs) == 0 || len(accs) > 64 {
			return true
		}
		p := driveSchedule(accs)
		return p.ActiveCycles == p.HitActiveCycles+p.PureCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsAdd(t *testing.T) {
	p := driveFig1()
	sum := p.Add(p)
	if sum.Accesses != 2*p.Accesses || sum.PureAccessCycles != 2*p.PureAccessCycles {
		t.Fatal("Add does not sum counters")
	}
	// Doubling all counters preserves every ratio.
	if math.Abs(sum.CAMAT()-p.CAMAT()) > 1e-12 {
		t.Fatal("Add changed C-AMAT of identical distributions")
	}
}

func TestParamsStringMentionsKeyFields(t *testing.T) {
	s := driveFig1().String()
	for _, frag := range []string{"C-AMAT=1.600", "AMAT=3.800", "pMR=0.2"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
