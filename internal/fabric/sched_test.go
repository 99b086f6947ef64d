package fabric

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lpm/internal/resilience/fleet"
)

// recorder is the scheduler's port in tests: it keeps every frame,
// drop, resolution and journal record, and checks the port-level
// invariants as they happen.
type recorder struct {
	s        *scheduler
	capacity int // frames a session's outbox holds before send reports it full
	outbox   map[*session][]Msg
	dropped  map[*session]error
	// quarantined holds the sessions live at the instant their name was
	// quarantined: no work frame may reach them afterwards.
	quarantined map[*session]bool
	resolved    map[uint64]int
	entries     []fleet.Entry
	errs        []string
}

func (r *recorder) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recorder) send(w *session, m Msg) bool {
	if _, gone := r.dropped[w]; gone {
		r.fail("%s frame sent to dropped session %s", m.Type, w.name)
	}
	if m.Type == MsgWork {
		if r.quarantined[w] {
			r.fail("work frame for granule %d reached %s after its quarantine", m.ID, w.name)
		}
		if g := w.inflight[m.ID]; g == nil || g.resolved {
			r.fail("work frame issued for resolved granule %d", m.ID)
		}
	}
	if len(r.outbox[w]) >= r.capacity {
		return false
	}
	r.outbox[w] = append(r.outbox[w], m)
	return true
}

func (r *recorder) drop(w *session, cause error) {
	if _, gone := r.dropped[w]; gone {
		r.fail("session %s dropped twice", w.name)
	}
	r.dropped[w] = cause
}

func (r *recorder) resolve(g *granule) {
	r.resolved[g.id]++
	if r.resolved[g.id] > 1 {
		r.fail("granule %d resolved %d times", g.id, r.resolved[g.id])
	}
}

func (r *recorder) journal(e fleet.Entry) {
	r.entries = append(r.entries, e)
	if e.Op == fleet.OpQuarantine {
		for _, w := range r.s.sessions {
			if w.name == e.Worker {
				r.quarantined[w] = true
			}
		}
	}
}

// take empties w's outbox, as its writer would, and returns the frames.
func (r *recorder) take(w *session) []Msg {
	out := r.outbox[w]
	delete(r.outbox, w)
	return out
}

// testOptions are Listen's defaults at a test scale: suspect after 4
// silent ticks, dead after 10, stragglers hedged after 6.
func testOptions() Options {
	return Options{
		StraggleAfter: 6 * 25 * time.Millisecond,
		TickEvery:     25 * time.Millisecond,
		Heartbeat:     time.Millisecond,
		Health:        HealthPolicy{SuspectAfter: 4, DeadAfter: 10},
	}
}

// newTestSched returns a scheduler over a recorder whose outboxes hold
// capacity frames.
func newTestSched(opts Options, capacity int) (*scheduler, *recorder) {
	r := &recorder{
		capacity:    capacity,
		outbox:      make(map[*session][]Msg),
		dropped:     make(map[*session]error),
		quarantined: make(map[*session]bool),
		resolved:    make(map[uint64]int),
	}
	r.s = newScheduler(r, opts)
	return r.s, r
}

// join says hello as a new session.
func join(t testing.TB, s *scheduler, name string, slots int) *session {
	t.Helper()
	w := &session{name: name, slots: slots}
	if !s.hello(w) {
		t.Fatalf("%s refused at tick %d", name, s.tick)
	}
	return w
}

// newGranule registers a granule without dispatching it.
func newGranule(s *scheduler, votesWanted int, votedBy ...string) *granule {
	g := &granule{id: s.nextID, kind: "test", key: fmt.Sprint("g", s.nextID), done: make(chan struct{}), votesWanted: votesWanted}
	for _, name := range votedBy {
		g.votes = append(g.votes, vote{worker: name, outcome: outcome{value: []byte("1")}})
	}
	s.nextID++
	s.byKey[g.key] = g
	s.order = append(s.order, g)
	return g
}

// holderOf returns the index of the first session holding g, or -1.
func holderOf(s *scheduler, g *granule) int {
	for i, w := range s.sessions {
		if _, ok := w.inflight[g.id]; ok {
			return i
		}
	}
	return -1
}

func (r *recorder) check(t *testing.T) {
	t.Helper()
	for _, e := range r.errs {
		t.Error(e)
	}
	r.errs = nil
}

// TestSchedDispatch pins the placement rule: budget slots+1, lowest
// held/slots fill first, ties in join order, holders and voters skipped.
func TestSchedDispatch(t *testing.T) {
	if got := budget(1); got != 2 {
		t.Errorf("budget(1) = %d, want 2: one executing, one prefetched", got)
	}
	if got := budget(8); got != 9 {
		t.Errorf("budget(8) = %d, want 9", got)
	}
	for _, tc := range []struct {
		name  string
		slots []int
		held  []int  // granules each session holds before the row's picks
		skip  []bool // the session voted on every granule of the row
		want  []int  // the session each granule goes to, -1 = stays queued
	}{
		// The sweep_real shape: the join-order fill gave both to worker 0.
		{"two 1-slot workers, two granules: one each",
			[]int{1, 1}, nil, nil, []int{0, 1}},
		{"{4 slots, 1 slot}: five granules land 4/1, the sixth and seventh are the prefetches, the eighth waits",
			[]int{4, 1}, nil, nil, []int{0, 1, 0, 0, 0, 0, 1, -1}},
		{"execution slots of the whole fleet fill before anyone's prefetch slot",
			[]int{1, 1, 1}, nil, nil, []int{0, 1, 2, 0, 1, 2, -1}},
		{"a worker at budget is never picked, however idle its peers are not",
			[]int{1, 8}, []int{2, 8}, nil, []int{1, -1}},
		{"the fill ratio, not the held count, orders workers",
			[]int{1, 4}, []int{1, 3}, nil, []int{1, 0, 1, -1}},
		{"a worker that holds or voted on the granule is skipped; the others are not starved",
			[]int{2, 1}, []int{0, 1}, []bool{true, false}, []int{1, -1}},
		{"every candidate skipped: the granule is passed over",
			[]int{2, 1}, nil, []bool{true, true}, []int{-1}},
		{"no workers at all",
			nil, nil, nil, []int{-1}},
	} {
		s, r := newTestSched(testOptions(), 64)
		var voters []string
		for i, slots := range tc.slots {
			w := join(t, s, fmt.Sprint("w", i), slots)
			for k := 0; tc.held != nil && k < tc.held[i]; k++ {
				s.issue(w, newGranule(s, 0))
			}
			if tc.skip != nil && tc.skip[i] {
				voters = append(voters, w.name)
			}
		}
		var got []int
		for range tc.want {
			g := newGranule(s, 2, voters...)
			s.enqueue(g)
			s.dispatch()
			got = append(got, holderOf(s, g))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: picks %v, want %v", tc.name, got, tc.want)
		}
		r.check(t)
	}

	// A join mid-batch takes the next granule: the newcomer is the
	// least loaded the moment it appears.
	s, r := newTestSched(testOptions(), 64)
	join(t, s, "first", 2)
	pickN := func(n int) []int {
		var got []int
		for i := 0; i < n; i++ {
			got = append(got, holderOf(s, s.submit("test", fmt.Sprint("k", s.nextID), nil)))
		}
		return got
	}
	if got, want := pickN(2), []int{0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("before the join: picks %v, want %v", got, want)
	}
	join(t, s, "second", 2)
	if got, want := pickN(3), []int{1, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("after the join: picks %v, want %v", got, want)
	}
	r.check(t)
}

// TestSchedReplica pins the placement pass: one row per placement bug
// the chaos suite has caught, plus the ordinary cases around them. Each
// row builds a granule's situation out of real sessions and runs one
// placement; the copies it issues, the duplicates and strikes it
// charges, and whether it settles the granule say which decision it
// took.
func TestSchedReplica(t *testing.T) {
	const (
		held       = "held"       // nothing placed
		validating = "validating" // copies for missing votes, no duplicate counted
		hedge      = "hedge"      // one duplicate, no strike
		straggler  = "straggler"  // one duplicate, every stale holder struck
		exhausted  = "exhausted"  // no live voter left: settled with the votes in hand
	)
	for _, tc := range []struct {
		name        string
		noStraggle  bool
		queued      bool
		votesWanted int
		voters      int  // live sessions that already answered
		holders     int  // live sessions holding a copy
		deadHolders int  // sessions that held a copy and died
		idle        int  // live sessions neither holding nor voted
		idleSuspect bool // the idle sessions turned suspect
		age         uint64
		suspect     bool // the sole holder turned suspect this tick
		wantHolders int
		why         string
	}{
		{name: "plain granule with a fresh healthy holder is left alone",
			holders: 1, idle: 1, age: 3, wantHolders: 1, why: held},
		{name: "queued granule is the dispatch queue's business",
			queued: true, idle: 1, age: 99, wantHolders: 0, why: held},
		{name: "validation wants a second live copy",
			votesWanted: 2, holders: 1, idle: 2, wantHolders: 2, why: validating},
		// Two copies were issued but one worker died: only the live copy
		// is a holder, so a replacement is placed instead of parking the
		// granule on a vote that will never arrive.
		{name: "a copy issued to a since-dead worker is not counted",
			votesWanted: 2, holders: 1, deadHolders: 1, idle: 1, wantHolders: 2, why: validating},
		{name: "cast votes count towards the quorum",
			votesWanted: 2, voters: 1, holders: 1, idle: 1, wantHolders: 1, why: held},
		{name: "divergence escalated to three: one more live copy, never to a voter",
			votesWanted: 3, voters: 2, idle: 1, wantHolders: 1, why: validating},
		{name: "a granule is not parked when the electorate is exhausted",
			votesWanted: 3, voters: 2, wantHolders: 0, why: exhausted},
		{name: "an exhausted electorate waits for a copy still in flight",
			votesWanted: 3, voters: 1, holders: 1, wantHolders: 1, why: validating},
		{name: "no vote in hand means nothing to settle with",
			votesWanted: 2, wantHolders: 0, why: validating},
		{name: "a holder is not given a second copy",
			votesWanted: 2, holders: 1, wantHolders: 1, why: validating},
		{name: "a suspect sole holder hedges without a strike",
			holders: 1, idle: 1, age: 3, suspect: true, wantHolders: 2, why: hedge},
		{name: "an aged holder hedges with a strike",
			holders: 1, idle: 1, age: 6, wantHolders: 2, why: straggler},
		{name: "age outranks suspicion: the stale holder is struck",
			holders: 1, idle: 1, age: 6, suspect: true, wantHolders: 2, why: straggler},
		{name: "an aged granule with two holders gets a third",
			holders: 2, idle: 1, age: 8, wantHolders: 3, why: straggler},
		{name: "a suspect worker is no hedge",
			holders: 1, idle: 1, idleSuspect: true, age: 6, wantHolders: 1, why: held},
		{name: "straggler hedging disabled",
			noStraggle: true, holders: 1, idle: 1, age: 1 << 30, wantHolders: 1, why: held},
		{name: "a satisfied election still hedges an aged copy",
			votesWanted: 2, voters: 1, holders: 1, idle: 1, age: 6, wantHolders: 2, why: straggler},
	} {
		opts := testOptions()
		if tc.noStraggle {
			opts.StraggleAfter = -1
		}
		s, r := newTestSched(opts, 64)
		var voterNames []string
		for i := 0; i < tc.voters; i++ {
			voterNames = append(voterNames, join(t, s, fmt.Sprint("v", i), 4).name)
		}
		g := newGranule(s, tc.votesWanted, voterNames...)
		var holders []*session
		for i := 0; i < tc.holders+tc.deadHolders; i++ {
			w := join(t, s, fmt.Sprint("h", i), 4)
			s.issue(w, g)
			holders = append(holders, w)
		}
		for _, w := range holders[tc.holders:] {
			s.gone(w, errors.New("killed"))
		}
		for i := 0; i < tc.idle; i++ {
			w := join(t, s, fmt.Sprint("i", i), 4)
			if tc.idleSuspect {
				w.suspect = 1
			}
		}
		if tc.queued {
			s.enqueue(g)
		}
		s.tick = tc.age
		if tc.suspect {
			holders[0].suspect = s.tick
		}
		dup := s.stats.Duplicated
		s.place(g)
		s.reap()

		strikes := 0
		for _, n := range s.strikes {
			strikes += n
		}
		why := held
		switch {
		case g.resolved:
			why = exhausted
		case s.stats.Duplicated > dup && strikes > 0:
			why = straggler
		case s.stats.Duplicated > dup:
			why = hedge
		case g.votesWanted > 1 && g.holders+len(g.votes) < g.votesWanted:
			why = validating
		case g.holders > tc.holders:
			why = validating
		}
		if g.holders != tc.wantHolders || why != tc.why {
			t.Errorf("%s: %d holders (%s), want %d (%s)", tc.name, g.holders, why, tc.wantHolders, tc.why)
		}
		if why == straggler && strikes != tc.holders {
			t.Errorf("%s: %d strikes, want one per stale holder (%d)", tc.name, strikes, tc.holders)
		}
		for _, w := range s.sessions {
			if _, ok := w.inflight[g.id]; ok && g.voted(w.name) {
				t.Errorf("%s: voter %s was given a copy", tc.name, w.name)
			}
		}
		r.check(t)
	}
}

// TestSchedLateCopyHoldsItsSlot: the coordinator forgets a granule's key
// once it resolves, but a second copy stays in its holder's holdings,
// taking a slot, until that holder answers; the answer frees the slot
// and counts as a late result. A result for a granule the sender does
// not hold is ignored.
func TestSchedLateCopyHoldsItsSlot(t *testing.T) {
	s, r := newTestSched(testOptions(), 64)
	a := join(t, s, "a", 1)
	b := join(t, s, "b", 1)
	g := s.submit("test", "k", nil)
	s.issue(b, g) // a hedge copy
	s.result(a, Msg{Type: MsgResult, ID: g.id, Value: []byte("1")})
	if _, known := s.byKey["k"]; !g.resolved || known {
		t.Fatalf("resolved=%v, known by key=%v; want resolved and forgotten", g.resolved, known)
	}
	if _, held := b.inflight[g.id]; !held || g.holders != 1 {
		t.Fatalf("b's copy released before b answered: held=%v holders=%d", held, g.holders)
	}
	s.result(b, Msg{Type: MsgResult, ID: g.id, Value: []byte("1")})
	if len(b.inflight) != 0 || g.holders != 0 || s.stats.LateResults != 1 {
		t.Fatalf("after b's answer: held %d, holders %d, late results %d; want 0, 0, 1", len(b.inflight), g.holders, s.stats.LateResults)
	}
	s.result(b, Msg{Type: MsgResult, ID: g.id, Value: []byte("2")})
	if s.stats.LateResults != 1 || s.stats.Completed != 1 || string(g.value) != "1" {
		t.Fatalf("an unheld result counted: %+v, value %s", s.stats, g.value)
	}
	r.check(t)
}

// TestSchedHealthClassification walks one session through silence:
// healthy, suspect at SuspectAfter (counted once, no strike), recovered
// by a ping, dead at DeadAfter — dropped, its granule re-queued.
func TestSchedHealthClassification(t *testing.T) {
	s, r := newTestSched(testOptions(), 64)
	s.tick = 100
	w := join(t, s, "w1", 1)
	g := s.submit("test", "k", nil)
	for _, tc := range []struct {
		tick uint64
		want string
	}{
		{100, "healthy"}, {103, "healthy"}, {104, "suspect"}, {109, "suspect"},
	} {
		for s.tick < tc.tick {
			s.onTick()
		}
		if got := s.healthOf(w); got != tc.want {
			t.Errorf("tick %d: %s, want %s", tc.tick, got, tc.want)
		}
	}
	if s.stats.Suspects != 1 || w.suspect != 104 || s.strikes["w1"] != 0 {
		t.Errorf("suspects=%d since tick %d, strikes %d; want 1 since 104, no strike", s.stats.Suspects, w.suspect, s.strikes["w1"])
	}
	// Fresh proof of life resets the clock.
	s.ping(w, Msg{Type: MsgPing, ID: 1})
	if got := s.healthOf(w); got != "healthy" || w.suspect != 0 {
		t.Fatalf("after a ping: %s (suspect since %d), want healthy", got, w.suspect)
	}
	for s.tick < 109+10-1 {
		s.onTick()
	}
	if _, gone := r.dropped[w]; gone {
		t.Fatalf("dropped at tick %d, one tick before DeadAfter", s.tick)
	}
	s.onTick()
	if _, gone := r.dropped[w]; !gone || len(s.sessions) != 0 {
		t.Fatalf("tick %d: not dropped after %d silent ticks", s.tick, s.health.DeadAfter)
	}
	if !g.queued || s.stats.Requeued != 1 || s.strikes["w1"] != 1 {
		t.Errorf("queued=%v requeued=%d strikes=%d; want the granule re-queued and one strike", g.queued, s.stats.Requeued, s.strikes["w1"])
	}
	// A rejoin under the same name starts from a fresh last-seen tick.
	w2 := join(t, s, "w1", 1)
	if got := s.healthOf(w2); got != "healthy" {
		t.Errorf("rejoined session: %s, want healthy", got)
	}
	r.check(t)
}

// TestSchedHealthDisabled: without heartbeats silence proves nothing.
func TestSchedHealthDisabled(t *testing.T) {
	opts := testOptions()
	opts.Heartbeat = -1
	s, r := newTestSched(opts, 64)
	w := join(t, s, "w", 1)
	s.tick = 1 << 40
	s.onTick()
	if got := s.healthOf(w); got != "healthy" || len(r.dropped) != 0 || s.stats.Suspects != 0 {
		t.Fatalf("heartbeats off: %s, %d dropped, %d suspects; want healthy and untouched", got, len(r.dropped), s.stats.Suspects)
	}
}

// dieOnce joins name and lets it fall silent until the heartbeat
// deadline drops it.
func dieOnce(t *testing.T, s *scheduler, name string) {
	t.Helper()
	w := join(t, s, name, 1)
	for deadline := s.tick + s.health.DeadAfter; s.tick < deadline; {
		s.onTick()
	}
	if !w.dropped {
		t.Fatalf("%s not dropped at tick %d", name, s.tick)
	}
}

// TestSchedQuarantineStrikesAndProbation: the third strike trips,
// handshakes are refused for the probation window, and readmission is a
// clean slate.
func TestSchedQuarantineStrikesAndProbation(t *testing.T) {
	s, r := newTestSched(testOptions(), 64)
	dieOnce(t, s, "w")
	dieOnce(t, s, "w")
	if s.stats.Quarantined != 0 || s.strikes["w"] != 2 {
		t.Fatalf("after two deaths: quarantined=%d strikes=%d, want 0 and 2", s.stats.Quarantined, s.strikes["w"])
	}
	dieOnce(t, s, "w")
	tripped := s.tick
	if s.stats.Quarantined != 1 {
		t.Fatal("third strike did not trip")
	}
	for _, at := range []uint64{tripped, tripped + probation - 1} {
		s.tick = at
		if s.hello(&session{name: "w", slots: 1}) {
			t.Fatalf("admitted at tick %d, inside the probation that ends at %d", at, tripped+probation)
		}
	}
	s.tick = tripped + probation
	join(t, s, "w", 1)
	if s.strikes["w"] != 0 || s.stats.Readmitted != 1 {
		t.Fatalf("strikes=%d readmitted=%d after probation, want a clean slate", s.strikes["w"], s.stats.Readmitted)
	}
	if last := r.entries[len(r.entries)-1]; last.Op != fleet.OpReadmit || last.Worker != "w" {
		t.Fatalf("last journal record %+v, want w's readmission", last)
	}
	r.check(t)
}

// lyingVote sets up three sessions of which liar answers one
// cross-validated granule wrongly while it holds a second one; it
// returns the sessions and that second granule.
func lyingVote(t *testing.T) (s *scheduler, r *recorder, liar, a, b *session, next *granule) {
	t.Helper()
	opts := testOptions()
	opts.ValidateEvery = 1
	s, r = newTestSched(opts, 64)
	liar = join(t, s, "liar", 2)
	g := s.submit("test", "first", nil)
	next = s.submit("test", "second", nil)
	a = join(t, s, "a", 1)
	b = join(t, s, "b", 1)
	s.onTick() // places the second votes
	if holderOf(s, g) != 0 || holderOf(s, next) != 0 {
		t.Fatalf("setup: the liar holds neither granule")
	}
	s.result(liar, Msg{Type: MsgResult, ID: g.id, Value: []byte("666")})
	for _, w := range []*session{a, b} {
		if _, ok := w.inflight[g.id]; ok {
			s.result(w, Msg{Type: MsgResult, ID: g.id, Value: []byte("1")})
		}
	}
	if !g.resolved || string(g.value) != "1" {
		t.Fatalf("first granule resolved=%v to %s, want the honest 1", g.resolved, g.value)
	}
	return s, r, liar, a, b, next
}

// TestSchedQuarantineNow: a divergent vote quarantines at once — no
// strike accrual — and a second trip of the same name is no new
// quarantine.
func TestSchedQuarantineNow(t *testing.T) {
	s, r, _, _, _, _ := lyingVote(t)
	if s.stats.Quarantined != 1 || s.strikes["liar"] != tripAfter || s.stats.Divergent != 1 {
		t.Fatalf("stats=%+v strikes=%d: want one divergence and the liar quarantined outright", s.stats, s.strikes["liar"])
	}
	n := len(r.entries)
	s.quarantine("liar", "again")
	if s.stats.Quarantined != 1 || len(r.entries) != n {
		t.Fatalf("a second trip counted: quarantined=%d, %d new journal records", s.stats.Quarantined, len(r.entries)-n)
	}
	r.check(t)
}

// TestSchedTripDropsTheSessionAtOnce is the quarantined-liar regression:
// the coordinator used to drop a tripped session from a spawned
// goroutine, so until that ran the liar kept voting and stayed eligible
// for work. Now the trip drops it inside the transition that decided
// it: its next result is not a vote and no work frame reaches it.
func TestSchedTripDropsTheSessionAtOnce(t *testing.T) {
	s, r, liar, a, b, next := lyingVote(t)
	if _, gone := r.dropped[liar]; !gone || len(s.sessions) != 2 {
		t.Fatalf("the liar's session is still live after its trip")
	}
	votes := len(next.votes)
	s.result(liar, Msg{Type: MsgResult, ID: next.id, Value: []byte("666")})
	if len(next.votes) != votes || next.voted("liar") {
		t.Fatalf("a quarantined session's result was counted as a vote: %+v", next.votes)
	}
	// The liar's re-queued granule goes to the honest sessions only.
	for i := 0; i < 4 && !next.resolved; i++ {
		for _, w := range []*session{a, b} {
			if _, ok := w.inflight[next.id]; ok {
				s.result(w, Msg{Type: MsgResult, ID: next.id, Value: []byte("1")})
			}
		}
		s.onTick()
	}
	if !next.resolved || string(next.value) != "1" {
		t.Fatalf("second granule resolved=%v to %s, want the honest 1", next.resolved, next.value)
	}
	r.check(t) // fails on any work frame sent to the liar after its quarantine
}

// TestSchedDeadWorkerStruckOnce is the second half of that regression:
// a heartbeat-dead worker left live until a spawned drop ran was struck
// again on every tick in between.
func TestSchedDeadWorkerStruckOnce(t *testing.T) {
	s, r := newTestSched(testOptions(), 64)
	dieOnce(t, s, "w")
	for i := 0; i < 3*int(s.health.DeadAfter); i++ {
		s.onTick()
	}
	if s.strikes["w"] != 1 || s.stats.Died != 1 {
		t.Fatalf("strikes=%d died=%d, want one death and one strike", s.strikes["w"], s.stats.Died)
	}
	r.check(t)
}

// TestSchedQuarantineRestore: a successor restores the quarantine
// roster from the journal and blocks it for a fresh probation.
func TestSchedQuarantineRestore(t *testing.T) {
	_, r, _, _, _, _ := lyingVote(t)
	st := fleet.RecoverState(r.entries)
	if !reflect.DeepEqual(st.Quarantined, []string{"liar"}) {
		t.Fatalf("recovered roster %v, want [liar]", st.Quarantined)
	}
	st.Quarantined = append(st.Quarantined, "other")
	s2, r2 := newTestSched(testOptions(), 64)
	s2.restore(st)
	if s2.stats.Quarantined != 2 {
		t.Fatalf("restored stats=%+v, want both quarantines counted", s2.stats)
	}
	for _, at := range []uint64{50, probation - 1} {
		s2.tick = at
		for _, name := range st.Quarantined {
			if s2.hello(&session{name: name, slots: 1}) {
				t.Fatalf("%s admitted at tick %d of the restored probation", name, at)
			}
		}
	}
	s2.tick = probation
	join(t, s2, "liar", 1)
	r.check(t)
	r2.check(t)
}

// TestSchedIsSocketFree keeps sched.go a pure state machine: no
// sockets, files or locks imported, no wall-clock reads or timers, no
// goroutines, no channel operations.
func TestSchedIsSocketFree(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "sched.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "net", "os", "sync":
			t.Errorf("sched.go imports %q", path)
		}
	}
	clock := map[string]bool{"Now": true, "Since": true, "After": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "AfterFunc": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("sched.go spawns a goroutine at offset %d", n.Pos())
		case *ast.SendStmt, *ast.SelectStmt:
			t.Errorf("sched.go operates on a channel at offset %d", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				t.Errorf("sched.go receives from a channel at offset %d", n.Pos())
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				t.Errorf("sched.go closes a channel at offset %d", n.Pos())
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && clock[sel.Sel.Name] {
					t.Errorf("sched.go reads the wall clock: time.%s", sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// FuzzCoordinator drives the scheduler through arbitrary interleavings
// of its transitions over the recording port — up to four sessions
// with duplicate names; submits; honest, lying, failing and duplicate
// results; pings, gones and ticks; outboxes that fill up — then drains
// with two honest workers, and checks the scheduling invariants after
// every step.
func FuzzCoordinator(f *testing.F) {
	// Plain dispatch: two workers, three granules, answers and a tick.
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 0, 0, 0, 1, 0, 2, 2, 0, 0, 2, 1, 0, 8, 2})
	// A liar outvoted: w0 lies on k0, w1 and w2 answer honestly, w0 is
	// quarantined, and k1 is submitted right after.
	f.Add([]byte{1, 1, 0, 0, 1, 1, 0, 1, 2, 0, 0, 0, 8, 0, 3, 0, 0, 2, 1, 0, 2, 2, 0, 0, 1})
	// A death, an error answer and a duplicate under validation.
	f.Add([]byte{2, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 7, 0, 4, 1, 0, 5, 1, 8, 12, 2, 0, 0})
	f.Fuzz(fuzzBody)
}

func fuzzBody(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	opts := testOptions()
	opts.ValidateEvery = int(data[0] % 3)
	s, r := newTestSched(opts, 4+int(data[0]/3%6))
	z := &fuzzRun{t: t, s: s, r: r, data: data[1:], gs: make(map[uint64]*granule)}
	for steps := 0; len(z.data) > 0 && steps < 400; steps++ {
		z.step()
		z.check()
	}
	z.drain()
}

// fuzzRun is one FuzzCoordinator input being played.
type fuzzRun struct {
	t    *testing.T
	s    *scheduler
	r    *recorder
	data []byte
	all  []*session          // every session ever admitted, gone ones included
	gs   map[uint64]*granule // every granule ever submitted, resolved ones included
	todo map[*session][]Msg  // work frames a session's worker has received
	last map[*session]Msg    // each session's last result, for duplicates
}

func (z *fuzzRun) next() int {
	if len(z.data) == 0 {
		return 0
	}
	b := z.data[0]
	z.data = z.data[1:]
	return int(b)
}

func (z *fuzzRun) live() int {
	n := 0
	for _, w := range z.s.sessions {
		if !w.dropped {
			n++
		}
	}
	return n
}

// answer sends a result from w with the given honesty (0 honest, 1
// lying, 2 an error, 3 a duplicate of w's last result) for a
// granule w holds — or, when it holds none (it may be gone), for any
// granule at all.
func (z *fuzzRun) answer(w *session, how int) {
	if z.last == nil {
		z.last = make(map[*session]Msg)
	}
	if how == 3 {
		if m, ok := z.last[w]; ok {
			z.s.result(w, m)
		}
		return
	}
	ids := make([]uint64, 0, len(w.inflight))
	for id := range w.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		if z.s.nextID == 0 {
			return
		}
		ids = append(ids, uint64(z.next())%z.s.nextID)
	}
	id := ids[z.next()%len(ids)]
	m := Msg{Type: MsgResult, ID: id}
	switch how {
	case 0:
		m.Value = honest(z.gs[id].key)
	case 1:
		m.Value = []byte(strconv.Quote("lie by " + w.name))
	case 2:
		m.Failed, m.Error = true, "connection reset"
	}
	z.last[w] = m
	z.s.result(w, m)
}

// honest is the one true answer for a key.
func honest(key string) []byte { return []byte(strconv.Quote("value of " + key)) }

func (z *fuzzRun) session() *session {
	if len(z.all) == 0 {
		return nil
	}
	return z.all[z.next()%len(z.all)]
}

func (z *fuzzRun) step() {
	s := z.s
	switch op := z.next() % 10; op {
	case 0:
		g := s.submit("test", fmt.Sprint("k", z.next()%12), nil)
		z.gs[g.id] = g
	case 1:
		w := &session{name: fmt.Sprint("w", z.next()%3), slots: 1 + z.next()%3}
		if z.live() < 4 && s.hello(w) {
			z.all = append(z.all, w)
		}
	case 2, 3, 4, 5:
		if w := z.session(); w != nil {
			z.answer(w, op-2)
		}
	case 6:
		if w := z.session(); w != nil {
			s.ping(w, Msg{Type: MsgPing, ID: uint64(z.next())})
		}
	case 7:
		if w := z.session(); w != nil {
			s.gone(w, errors.New("connection lost"))
		}
	case 8:
		for n := 1 + z.next()%16; n > 0; n-- {
			s.onTick()
		}
	case 9:
		if w := z.session(); w != nil {
			z.r.take(w) // its writer catches up
		}
	}
}

// drain retires every fuzzed session, joins two honest workers and
// runs until every granule resolves.
func (z *fuzzRun) drain() {
	s := z.s
	for _, w := range append([]*session(nil), s.sessions...) {
		s.gone(w, errors.New("drain"))
	}
	z.check()
	honestWorkers := []*session{{name: "drain-a", slots: 2}, {name: "drain-b", slots: 2}}
	for _, w := range honestWorkers {
		if !s.hello(w) {
			z.t.Fatalf("drain worker %s refused", w.name)
		}
	}
	for round := 0; round < 1000 && len(z.r.resolved) < len(z.gs); round++ {
		for _, w := range honestWorkers {
			// The writer keeps up: the outbox empties before every answer.
			for z.r.take(w); len(w.inflight) > 0; z.r.take(w) {
				z.answer(w, 0)
			}
			s.ping(w, Msg{Type: MsgPing})
		}
		s.onTick()
		z.check()
	}
	for id, g := range z.gs {
		if !g.resolved {
			z.t.Fatalf("granule %d (%s) never resolved: queued=%v holders=%d votes=%d", id, g.key, g.queued, g.holders, len(g.votes))
		}
	}
}

// check asserts the scheduler invariants between steps.
func (z *fuzzRun) check() {
	t, s, r := z.t, z.s, z.r
	t.Helper()
	for _, e := range r.errs {
		t.Fatal(e)
	}
	if len(s.dropping) != 0 {
		t.Fatalf("%d dropped sessions left unreaped after a step", len(s.dropping))
	}
	queued := make(map[uint64]bool)
	for _, g := range s.pending {
		queued[g.id] = true
	}
	for id, g := range z.gs {
		if known, ok := s.byKey[g.key]; g.resolved == (ok && known == g) {
			t.Fatalf("granule %d: resolved=%v, but known by key: %v", id, g.resolved, ok && known == g)
		}
		holding := 0
		for _, w := range s.sessions {
			if w.dropped {
				t.Fatalf("dropped session %s still live", w.name)
			}
			if _, ok := w.inflight[id]; ok {
				holding++
			}
		}
		if holding != g.holders {
			t.Fatalf("granule %d: holders=%d, but %d sessions hold it", id, g.holders, holding)
		}
		if g.queued != queued[id] {
			t.Fatalf("granule %d: queued=%v but in the queue: %v", id, g.queued, queued[id])
		}
		voters := make(map[string]bool)
		honestVotes := 0
		for _, v := range g.votes {
			if voters[v.worker] {
				t.Fatalf("granule %d: %s voted twice", id, v.worker)
			}
			voters[v.worker] = true
			if string(v.value) == string(honest(g.key)) {
				honestVotes++
			}
		}
		if g.resolved {
			if honestVotes >= 2 && string(g.value) != string(honest(g.key)) {
				t.Fatalf("granule %d: %d honest votes, resolved to %s", id, honestVotes, g.value)
			}
			continue
		}
		if g.queued && g.holders > 0 {
			t.Fatalf("granule %d is both queued and held by %d", id, g.holders)
		}
		if !g.queued && g.holders == 0 && len(g.votes) == 0 {
			t.Fatalf("granule %d is neither queued nor held", id)
		}
	}
	for _, e := range r.entries {
		switch e.Op {
		case fleet.OpQuarantine, fleet.OpReadmit:
		default:
			t.Fatalf("journal record %+v is not one RecoverState folds", e)
		}
	}
	st := fleet.RecoverState(r.entries)
	roster := make([]string, 0, len(s.until))
	for name := range s.until {
		roster = append(roster, name)
	}
	sort.Strings(roster)
	if strings.Join(roster, ",") != strings.Join(st.Quarantined, ",") {
		t.Fatalf("quarantine roster %v, journal recovers %v", roster, st.Quarantined)
	}
}
