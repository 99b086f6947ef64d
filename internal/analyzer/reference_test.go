package analyzer

import (
	"math/rand"
	"testing"
)

// refAnalyzer is the analyzer as it stood before pure-miss classification
// became a clock comparison: the MCD keeps the set of outstanding misses
// and every pure-miss cycle walks it to mark each one. Kept verbatim (less
// the free list) as the oracle for TestPureClockMatchesMarkingReference.
type refAccess struct {
	missing bool
	pure    bool
	missIdx int
	missBeg uint64
}

type refAnalyzer struct {
	hitCount int
	missSet  []*refAccess
	cur      Params
}

func (a *refAnalyzer) Start(uint64) *refAccess {
	a.cur.Accesses++
	a.hitCount++
	return &refAccess{missIdx: -1}
}

func (a *refAnalyzer) ToMiss(ac *refAccess, cycle uint64) {
	a.hitCount--
	ac.missing = true
	ac.missBeg = cycle
	ac.missIdx = len(a.missSet)
	a.missSet = append(a.missSet, ac)
}

func (a *refAnalyzer) Done(ac *refAccess, cycle uint64) {
	a.cur.Completed++
	if !ac.missing {
		a.hitCount--
		return
	}
	last := len(a.missSet) - 1
	i := ac.missIdx
	a.missSet[i] = a.missSet[last]
	a.missSet[i].missIdx = i
	a.missSet = a.missSet[:last]
	ac.missIdx = -1

	a.cur.Misses++
	if cycle > ac.missBeg {
		a.cur.MissPenaltySum += cycle - ac.missBeg
	}
	if ac.pure {
		a.cur.PureMisses++
	}
}

func (a *refAnalyzer) Tick() {
	a.cur.Cycles++
	h := a.hitCount
	m := len(a.missSet)
	if h == 0 && m == 0 {
		return
	}
	a.cur.ActiveCycles++
	if h > 0 {
		a.cur.HitActiveCycles++
		a.cur.HitAccessCycles += uint64(h)
	}
	if m > 0 {
		a.cur.MissActiveCycles++
		a.cur.MissAccessCycles += uint64(m)
		if h == 0 {
			a.cur.PureCycles++
			a.cur.PureAccessCycles += uint64(m)
			for _, ac := range a.missSet {
				ac.pure = true
			}
		}
	}
}

func (a *refAnalyzer) ResetCounters() { a.cur = Params{} }

// TestPureClockMatchesMarkingReference drives the analyzer and the
// marking reference with the same seeded random event streams — accesses
// starting, missing and completing in any interleaving, bulk TickN runs,
// and ResetCounters landing while misses are outstanding — and requires
// identical counters after every cycle and an identical Pure() for every
// live access, and again after it completes.
func TestPureClockMatchesMarkingReference(t *testing.T) {
	type pair struct {
		got *Access
		ref *refAccess
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := New("x"), &refAnalyzer{}
		// Mostly-hit and mostly-miss phases alternate, so pure-miss
		// cycles both occur and get masked.
		var hitting, missing []pair
		resets, pureDone, maskedDone := 0, 0, 0
		for cycle := uint64(1); cycle <= 4000; cycle++ {
			busy := (cycle/200)%2 == 0
			for k := rng.Intn(3); k > 0 && (busy || rng.Intn(8) == 0); k-- {
				hitting = append(hitting, pair{a.Start(cycle), ref.Start(cycle)})
			}
			for i := 0; i < len(hitting); {
				if rng.Intn(3) != 0 {
					i++
					continue
				}
				p := hitting[i]
				hitting = append(hitting[:i], hitting[i+1:]...)
				if rng.Intn(2) == 0 {
					a.Done(p.got, cycle)
					ref.Done(p.ref, cycle)
					continue
				}
				a.ToMiss(p.got, cycle)
				ref.ToMiss(p.ref, cycle)
				missing = append(missing, p)
			}
			for i := 0; i < len(missing); {
				if rng.Intn(12) != 0 {
					i++
					continue
				}
				p := missing[i]
				missing = append(missing[:i], missing[i+1:]...)
				a.Done(p.got, cycle)
				ref.Done(p.ref, cycle)
				if p.got.Pure() != p.ref.pure {
					t.Fatalf("seed %d cycle %d: completed miss Pure() = %v, reference %v", seed, cycle, p.got.Pure(), p.ref.pure)
				}
				if p.ref.pure {
					pureDone++
				} else {
					maskedDone++
				}
			}
			if n := uint64(rng.Intn(6)); n > 1 && rng.Intn(4) == 0 {
				a.TickN(n)
				for i := uint64(0); i < n; i++ {
					ref.Tick()
				}
				cycle += n - 1
			} else {
				a.Tick()
				ref.Tick()
			}
			if len(missing) > 0 && rng.Intn(300) == 0 {
				a.ResetCounters()
				ref.ResetCounters()
				resets++
			}
			if a.Snapshot() != ref.cur {
				t.Fatalf("seed %d cycle %d: counters diverged\n got %+v\nwant %+v", seed, cycle, a.Snapshot(), ref.cur)
			}
			for _, p := range missing {
				if p.got.Pure() != p.ref.pure {
					t.Fatalf("seed %d cycle %d: outstanding miss Pure() = %v, reference %v", seed, cycle, p.got.Pure(), p.ref.pure)
				}
			}
			if a.InFlight() != len(hitting)+len(missing) {
				t.Fatalf("seed %d cycle %d: InFlight = %d, want %d", seed, cycle, a.InFlight(), len(hitting)+len(missing))
			}
		}
		if resets == 0 || pureDone == 0 || maskedDone == 0 {
			t.Fatalf("seed %d: weak stream (%d resets, %d pure and %d masked misses)", seed, resets, pureDone, maskedDone)
		}
	}
}

// BenchmarkAnalyzerPureTick measures the per-cycle classification of a
// pure-miss cycle with a full L2's worth of outstanding misses — the
// cycle that used to mark every one of them.
func BenchmarkAnalyzerPureTick(b *testing.B) {
	a := New("bench")
	for i := 0; i < 64; i++ {
		a.ToMiss(a.Start(0), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick()
	}
	if a.Snapshot().PureCycles != uint64(b.N) {
		b.Fatal("cycles were not pure")
	}
}
