// Package analyzer implements the paper's C-AMAT detecting system (Fig. 4):
// a per-layer Hit Concurrency Detector (HCD) and Miss Concurrency Detector
// (MCD). Attached to one layer of a memory hierarchy, it classifies every
// cycle and every access using the rules of the paper's Fig. 1:
//
//   - every access spends its hit-operation cycles (the layer's hit
//     latency) in the hit phase, whether it ultimately hits or misses;
//   - a missing access is outstanding in the miss phase from the end of
//     its hit phase until its data returns;
//   - a cycle with at least one outstanding miss and no hit-phase activity
//     is a pure-miss cycle (the MCD consults the HCD for this);
//   - a miss is a pure miss iff it experiences at least one pure-miss
//     cycle.
//
// From the raw counters the analyzer derives all C-AMAT parameters:
// H, C_H, C_M, C_m, MR, pMR, AMP, pAMP, APC — and thus C-AMAT (Eq. 2)
// and AMAT (Eq. 1); η (Eq. 4) is core.Eta1 over these ingredients. The
// definitions are arranged so that the identity C-AMAT = 1/APC (Eq. 3)
// holds exactly; package tests verify it on the paper's worked example
// and by property testing. Hierarchy stacks the layers' counters into the
// LPM request chain and derives Eqs. (9)-(11) from them.
package analyzer

// Access is the analyzer's per-access record. Obtain one from
// Analyzer.Start and thread it through ToMiss/Done. The zero value is
// internal to the package; callers treat Access as opaque.
type Access struct {
	missing  bool   // in the miss phase: between ToMiss and Done
	pure     bool   // classified a pure miss; final once Done has run
	pureAt   uint64 // the analyzer's pure-cycle clock when the miss phase began
	missBeg  uint64 // cycle the miss phase began (for per-miss penalty)
	hitBeg   uint64 // cycle the hit phase began
	analyzer *Analyzer
}

// Pure reports whether the access has been classified a pure miss so far:
// a pure-miss cycle has been counted since its miss phase began.
func (ac *Access) Pure() bool {
	return ac.pure || (ac.missing && ac.analyzer.pureClock > ac.pureAt)
}

// Analyzer measures one layer of a memory hierarchy. The zero value is
// unusable; create with New.
type Analyzer struct {
	name string

	// Live state (the detectors).
	hitCount  int // HCD: accesses currently in their hit phase
	missCount int // MCD: outstanding missed accesses

	// pureClock counts every pure-miss cycle since construction; unlike
	// cur.PureCycles it survives ResetCounters. Every outstanding miss
	// experiences every pure-miss cycle, so a miss is pure iff the clock
	// moved between its ToMiss and its Done — no per-cycle marking.
	pureClock uint64

	// free recycles completed Access records so a steady-state layer
	// allocates nothing per access. A record is released by Done and
	// stays intact until the next Start claims and resets it.
	free []*Access

	cur Params
}

// New returns an analyzer for the named layer (e.g. "L1", "LLC").
func New(name string) *Analyzer {
	return &Analyzer{name: name}
}

// Name returns the layer name.
func (a *Analyzer) Name() string { return a.name }

// InFlight returns the number of accesses currently tracked (hit phase +
// outstanding misses).
func (a *Analyzer) InFlight() int { return a.hitCount + a.missCount }

// Start records that a new access has begun its hit phase at the given
// cycle, and returns its record. Call Start when the access enters service
// (wins a port), not when it is merely queued: only in-service accesses
// contribute hit-phase activity.
func (a *Analyzer) Start(cycle uint64) *Access {
	a.cur.Accesses++
	a.hitCount++
	if n := len(a.free); n > 0 {
		ac := a.free[n-1]
		a.free = a.free[:n-1]
		*ac = Access{analyzer: a, hitBeg: cycle}
		return ac
	}
	return &Access{analyzer: a, hitBeg: cycle}
}

// ToMiss records that the access finished its hit phase at cycle and
// missed; it is now outstanding toward the lower layer.
func (a *Analyzer) ToMiss(ac *Access, cycle uint64) {
	if ac.missing {
		panic("analyzer: ToMiss called twice")
	}
	a.hitCount--
	if a.hitCount < 0 {
		panic("analyzer: hit phase underflow (BeginHitPhase missing?)")
	}
	ac.missing = true
	ac.missBeg = cycle
	ac.pureAt = a.pureClock
	a.missCount++
}

// Done records that the access completed at cycle: a hit completing its
// hit phase, or a miss receiving its fill.
func (a *Analyzer) Done(ac *Access, cycle uint64) {
	a.cur.Completed++
	if !ac.missing {
		a.hitCount--
		if a.hitCount < 0 {
			panic("analyzer: hit phase underflow")
		}
		a.free = append(a.free, ac)
		return
	}
	ac.pure = a.pureClock > ac.pureAt
	ac.missing = false
	a.missCount--

	a.cur.Misses++
	if cycle > ac.missBeg {
		a.cur.MissPenaltySum += cycle - ac.missBeg
	}
	if ac.pure {
		a.cur.PureMisses++
	}
	a.free = append(a.free, ac)
}

// Tick classifies the current cycle. Call exactly once per simulated
// cycle, after the layer has performed all Start/BeginHitPhase/ToMiss/Done
// transitions for the cycle.
func (a *Analyzer) Tick() {
	a.cur.Cycles++
	h := a.hitCount
	m := a.missCount
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
			// Pure-miss cycle: no hit activity masks these misses.
			a.cur.PureCycles++
			a.cur.PureAccessCycles += uint64(m)
			a.pureClock++
		}
	}
}

// TickN classifies n consecutive cycles during which the detector state
// (hit count and outstanding-miss count) is known not to change — the
// fast-forward bulk form of Tick. It is exactly equivalent to calling
// Tick n times under that precondition.
func (a *Analyzer) TickN(n uint64) {
	if n == 0 {
		return
	}
	a.cur.Cycles += n
	h := a.hitCount
	m := a.missCount
	if h == 0 && m == 0 {
		return
	}
	a.cur.ActiveCycles += n
	if h > 0 {
		a.cur.HitActiveCycles += n
		a.cur.HitAccessCycles += uint64(h) * n
	}
	if m > 0 {
		a.cur.MissActiveCycles += n
		a.cur.MissAccessCycles += uint64(m) * n
		if h == 0 {
			a.cur.PureCycles += n
			a.cur.PureAccessCycles += uint64(m) * n
			a.pureClock += n
		}
	}
}

// Snapshot returns the counters accumulated since construction or the last
// ResetCounters call.
func (a *Analyzer) Snapshot() Params { return a.cur }

// ResetCounters zeroes the accumulated counters while preserving in-flight
// access state, enabling the periodic interval measurement the LPM
// algorithm performs online.
func (a *Analyzer) ResetCounters() { a.cur = Params{} }
