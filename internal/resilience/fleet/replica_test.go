package fleet

import "testing"

// TestReplicaPolicy pins the placement decision: one row per placement
// bug the chaos suite has caught, plus the ordinary cases around them.
func TestReplicaPolicy(t *testing.T) {
	t.Parallel()
	p := ReplicaPolicy{StraggleAfter: 10}
	for _, tc := range []struct {
		name string
		p    ReplicaPolicy
		g    GranuleView
		want int
		why  Reason
	}{
		{"plain granule with a fresh healthy holder is left alone",
			p, GranuleView{Holders: 1, Age: 3}, 1, Held},
		{"queued granule is the dispatch queue's business",
			p, GranuleView{Age: 99}, 0, Held},
		{"validation wants a second live copy",
			p, GranuleView{VotesWanted: 2, Holders: 1, Electorate: 3}, 2, Validating},
		// Two copies were issued but one worker died: only the live copy
		// is in Holders, so a replacement is placed instead of parking
		// the granule on a vote that will never arrive.
		{"a copy issued to a since-dead worker is not counted",
			p, GranuleView{VotesWanted: 2, VotesCast: 0, Holders: 1, Electorate: 2}, 2, Validating},
		{"cast votes count towards the quorum",
			p, GranuleView{VotesWanted: 2, VotesCast: 1, Holders: 1, Electorate: 2}, 1, Held},
		{"divergence escalated to three: one more live copy",
			p, GranuleView{VotesWanted: 3, VotesCast: 2, Electorate: 1}, 1, Validating},
		{"a granule is not parked when the electorate is exhausted",
			p, GranuleView{VotesWanted: 3, VotesCast: 2, Electorate: 0}, 0, Exhausted},
		{"an exhausted electorate waits for a copy still in flight",
			p, GranuleView{VotesWanted: 3, VotesCast: 1, Holders: 1, Electorate: 0}, 2, Validating},
		{"no vote in hand means nothing to settle with",
			p, GranuleView{VotesWanted: 2, Electorate: 0}, 2, Validating},
		{"a suspect sole holder hedges without a strike",
			p, GranuleView{Holders: 1, Age: 3, SoleHolderSuspect: true}, 2, HedgeSuspect},
		{"an aged holder hedges with a strike",
			p, GranuleView{Holders: 1, Age: 10}, 2, HedgeStraggler},
		{"age outranks suspicion: the stale holder is struck",
			p, GranuleView{Holders: 1, Age: 10, SoleHolderSuspect: true}, 2, HedgeStraggler},
		{"an aged granule with two holders gets a third",
			p, GranuleView{Holders: 2, Age: 12}, 3, HedgeStraggler},
		{"straggler hedging disabled",
			ReplicaPolicy{}, GranuleView{Holders: 1, Age: 1 << 30}, 1, Held},
		{"a satisfied election still hedges an aged copy",
			p, GranuleView{VotesWanted: 2, VotesCast: 1, Holders: 1, Age: 10, Electorate: 1}, 2, HedgeStraggler},
	} {
		if got, why := tc.p.Copies(tc.g); got != tc.want || why != tc.why {
			t.Errorf("%s: Copies(%+v) = %d, reason %d; want %d, reason %d",
				tc.name, tc.g, got, why, tc.want, tc.why)
		}
	}

	for _, tc := range []struct {
		name string
		w    WorkerView
		want bool
	}{
		{"an uninvolved healthy worker is eligible", WorkerView{}, true},
		{"a worker that already voted is never eligible", WorkerView{Voted: true}, false},
		{"a holder is not given a second copy", WorkerView{Holding: true}, false},
		{"a suspect worker is no hedge", WorkerView{Suspect: true}, false},
	} {
		if got := p.Eligible(tc.w); got != tc.want {
			t.Errorf("%s: Eligible(%+v) = %v, want %v", tc.name, tc.w, got, tc.want)
		}
	}
}
