package fleet

// Replica placement policy. "Run this granule somewhere else too" has
// one answer, computed here from a socket-free view: the coordinator's
// per-tick placement pass asks how many live copies a granule should
// have and why, then asks of each worker whether it may take one.
// Cross-validation copies, suspect hedges and straggler re-issues are
// the same decision with different reasons.

// Reason says why Copies wants the number of live copies it returned.
type Reason int

const (
	// Held means the live copies suffice; nothing is placed.
	Held Reason = iota
	// Validating means cross-validation still needs votes that neither
	// a cast vote nor a live copy accounts for.
	Validating
	// HedgeSuspect means the sole holder went quiet: hedge with one more
	// copy but charge no strike — a worker saturated by a long granule
	// recovers on its next frame.
	HedgeSuspect
	// HedgeStraggler means the granule aged past the straggle deadline:
	// hedge with one more copy and strike every stale holder.
	HedgeStraggler
	// Exhausted means cross-validation needs votes no live worker can
	// cast: settle with the votes in hand rather than park the granule.
	Exhausted
)

// GranuleView is what the policy sees of one unresolved granule.
type GranuleView struct {
	VotesWanted int // cross-validation answers required (0/1 = none)
	VotesCast   int
	// Holders counts copies held by live workers only: a copy issued to
	// a worker that has since died will never become a vote.
	Holders           int
	Age               uint64 // ticks since the last issue
	SoleHolderSuspect bool   // the sole holder turned suspect this tick
	Electorate        int    // live workers that have not voted on it
}

// WorkerView is what the policy sees of one live worker relative to a
// granule.
type WorkerView struct {
	Holding bool // already holds a copy
	Voted   bool // its answer is already in
	Suspect bool
}

// ReplicaPolicy decides replica counts; StraggleAfter is the straggle
// deadline in ticks (0 disables straggler hedging).
type ReplicaPolicy struct {
	StraggleAfter uint64
}

// Copies returns how many live copies g should have, and why. A granule
// nobody holds and no election needs is the dispatch queue's business.
func (p ReplicaPolicy) Copies(g GranuleView) (int, Reason) {
	if need := g.VotesWanted - g.VotesCast; g.VotesWanted > 1 && g.Holders < need {
		if g.Holders == 0 && g.VotesCast > 0 && g.Electorate == 0 {
			return 0, Exhausted
		}
		return need, Validating
	}
	switch {
	case g.Holders == 0:
		return 0, Held
	case p.StraggleAfter > 0 && g.Age >= p.StraggleAfter:
		return g.Holders + 1, HedgeStraggler
	case g.Holders == 1 && g.SoleHolderSuspect:
		return 2, HedgeSuspect
	}
	return g.Holders, Held
}

// Eligible reports whether w may take a further copy: re-executing on a
// worker that holds or already answered the granule adds nothing, and a
// silent worker is no hedge.
func (p ReplicaPolicy) Eligible(w WorkerView) bool {
	return !w.Holding && !w.Voted && !w.Suspect
}
