package fabric

// The coordinator's scheduler: every scheduling decision the fabric
// makes, with no sockets, clocks, goroutines or channels in it. It owns
// the granule queue, the holdings and the votes, one record per worker
// session, and per-name strikes and probation. Its transitions — submit,
// hello, result, ping, gone and tick — are called by the coordinator
// under its one mutex, and every side effect leaves through the port: a
// frame to send, a session to close, a Submit to wake, a journal record. The TCP coordinator implements the port over
// sockets; the fuzzer implements it as a recorder and drives the
// transitions in arbitrary orders.
//
// Invariants, after every transition:
//
//   - an unresolved granule sits in the pending queue (id order) or in
//     ≥1 sessions' holdings, never both — or, when it already holds
//     votes, in neither until the placement pass finds it a voter;
//   - holders equals the number of sessions holding the granule; a
//     copy outlives its granule's resolution until its holder answers
//     or goes, so a slot stays taken while the worker still runs it;
//   - only unresolved granules are known by key: a resolved one lives
//     on only in its Submit callers and in stale copies' holdings;
//   - the queue is popped lowest-id-first, so earlier submissions are
//     never starved by later ones;
//   - a session is dropped the instant it is decided — outbox full,
//     quarantine trip, heartbeat death — so it takes no further work and
//     casts no further vote; it is removed, and its holdings re-queued,
//     before the transition returns.
//
// Every worker answer is final — a late copy, a vote on a validated
// granule, or the resolution — error answers included: executors are
// pure, so a failure reproduces on any worker, exactly as a serial run
// memoises it. None of this affects result values or merge order: the
// driver consumes results through Submit in its own deterministic
// order, so scheduling is free to be opportunistic.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/resilience/fleet"
)

const (
	// tripAfter strikes (a heartbeat death, a straggling granule
	// re-issued) quarantine a worker name; a divergent vote does at once.
	tripAfter = 3
	// probation is how many ticks a quarantined name is refused at the
	// handshake (~10s at the default tick). Readmission clears its
	// strikes.
	probation = 400
)

// port is every side effect the scheduler has.
type port interface {
	// send queues m for w; false means w's outbox is full.
	send(w *session, m Msg) bool
	// drop closes a session the scheduler has removed.
	drop(w *session, cause error)
	// resolve wakes the Submit callers waiting on g, which is final.
	resolve(g *granule)
	// journal appends one record a successor restores: a quarantine or
	// a readmission.
	journal(e fleet.Entry)
}

// HealthPolicy classifies worker silence in coordinator ticks.
type HealthPolicy struct {
	// SuspectAfter is the silent-tick count after which a worker turns
	// suspect: its sole-held granules are hedged, nothing is revoked.
	// Zero disables classification (every worker stays healthy).
	SuspectAfter uint64
	// DeadAfter is the silent-tick count after which a worker is dead:
	// dropped, struck, its holdings re-queued. It must exceed
	// SuspectAfter to take effect.
	DeadAfter uint64
}

// Stats is a snapshot of coordinator counters for tests and the CLIs.
type Stats struct {
	Workers     int // currently connected workers
	Joined      int // handshakes accepted over the coordinator's lifetime
	Submitted   int // distinct granules submitted
	Completed   int // granules resolved
	Requeued    int // granules re-queued after a worker died holding them
	Duplicated  int // straggler/suspect duplicates issued
	CacheHits   int // Submit calls that joined a granule still running
	Suspects    int // healthy→suspect transitions
	Retried     int // always 0: every worker answer is final; kept for bench/'s fabric.retried
	Quarantined int // workers tripped into quarantine
	Readmitted  int // workers readmitted after probation
	Validated   int // cross-validated granules decided
	Divergent   int // cross-validations that caught disagreeing answers
	Died        int // worker sessions torn down
	LateResults int // a held copy's result ignored because another copy already won
}

// outcome is a worker's answer to a granule: a value, or a failure with
// the executor's error text, which may be empty.
type outcome struct {
	value   json.RawMessage
	failed  bool
	errText string
}

// outcomeOf reads the outcome a result frame carries.
func outcomeOf(m Msg) outcome { return outcome{value: m.Value, failed: m.Failed, errText: m.Error} }

// vote is one worker's answer to a cross-validated granule.
type vote struct {
	worker string
	outcome
}

// digest is the comparison key for a vote: byte-equal values, or
// failures with equal error text, agree.
func (v vote) digest() string {
	if v.failed {
		return "failed\x00" + v.errText
	}
	return "value\x00" + string(v.value)
}

// granule is one unit of work: a (kind, key, spec) triple plus its
// resolution. Once resolved is set, its outcome is immutable and the
// port has closed done.
type granule struct {
	id   uint64
	kind string
	key  string
	spec json.RawMessage

	done chan struct{} // closed by the port's resolve
	outcome
	resolved bool

	queued     bool   // sitting in the pending queue
	holders    int    // sessions currently holding it
	issuedTick uint64 // last issuance on the logical clock, for straggler aging

	votesWanted int    // cross-validation copies required (0/1 = none)
	votes       []vote // answers received, in arrival order
}

// voted reports whether the named worker already answered.
func (g *granule) voted(name string) bool {
	for _, v := range g.votes {
		if v.worker == name {
			return true
		}
	}
	return false
}

// session is the scheduler's record of one connected worker.
type session struct {
	name     string
	slots    int // worker-declared execution concurrency, 1..maxSlots: its supply rate
	inflight map[uint64]*granule
	lastSeen uint64 // tick of the last frame received
	suspect  uint64 // tick the worker turned suspect; 0 while healthy

	dropped bool  // decided gone: ineligible, removed at the end of the step
	cause   error // why it was dropped
	link    *link // the transport behind it; nil outside the TCP coordinator
}

// budget is how many granules w may hold: one per slot plus one
// prefetched behind them, so no slot idles for the wire round trip.
func budget(slots int) int { return slots + 1 }

// sessionBuffer is how many frames each end of a session queues for
// the other: the coordinator's outbox and the worker's work queue.
// Several budgets, plus room for pongs: a coordinator whose outbox
// fills has a worker that stopped reading, and a worker whose queue
// fills has a coordinator past its budget; either drops the session.
func sessionBuffer(slots int) int { return 4*budget(slots) + 16 }

// scheduler is the coordinator's scheduling state machine.
type scheduler struct {
	port port
	log  *slog.Logger

	validateEvery int
	straggleAfter uint64 // ticks; 0 disables straggler hedging
	health        HealthPolicy
	pingMS        int64 // heartbeat cadence assigned in the welcome frame

	tick     uint64
	nextID   uint64
	byKey    map[string]*granule // unresolved granules, for single-flight Submit
	order    []*granule          // submission order, pruned of resolved granules each tick; the placement pass walks this, never a map
	pending  []*granule          // dispatch queue, ascending id
	sessions []*session          // live sessions in join order
	dropping []*session          // decided gone this step, not yet removed

	strikes map[string]int
	until   map[string]uint64 // quarantined names → tick their probation ends
	stats   Stats
}

// newScheduler configures a scheduler from opts, whose defaults Listen
// has filled in.
func newScheduler(p port, opts Options) *scheduler {
	s := &scheduler{
		port:          p,
		log:           cliutil.LoggerOrDiscard(opts.Log),
		validateEvery: opts.ValidateEvery,
		byKey:         make(map[string]*granule),
		strikes:       make(map[string]int),
		until:         make(map[string]uint64),
	}
	if opts.StraggleAfter > 0 {
		s.straggleAfter = ticksFor(opts.StraggleAfter, opts.TickEvery)
	}
	if opts.Heartbeat > 0 {
		// Without heartbeats silence proves nothing: health stays off.
		s.health = opts.Health
		s.pingMS = max(opts.Heartbeat.Milliseconds(), 1)
	}
	return s
}

// restore carries a predecessor's journaled quarantines: each restarts
// a full probation (the old clock died with the old process, and
// readmitting a known liar early is worse than a fresh wait).
func (s *scheduler) restore(st *fleet.JournalState) {
	for _, name := range st.Quarantined {
		s.strikes[name] = tripAfter
		s.until[name] = s.tick + probation
	}
	s.stats.Quarantined = len(st.Quarantined)
}

// submit returns the granule under key, creating and dispatching it
// unless a computation of key is still running, which is shared.
func (s *scheduler) submit(kind, key string, spec json.RawMessage) *granule {
	if g, ok := s.byKey[key]; ok {
		s.stats.CacheHits++
		return g
	}
	g := &granule{id: s.nextID, kind: kind, key: key, spec: spec, done: make(chan struct{})}
	s.nextID++
	if k := s.validateEvery; k > 0 && g.id%uint64(k) == 0 {
		g.votesWanted = 2
	}
	s.byKey[key] = g
	s.order = append(s.order, g)
	s.stats.Submitted++
	s.enqueue(g)
	s.dispatch()
	s.reap()
	return g
}

// hello admits w unless its name is quarantined, replacing any live
// session under the same name: health, votes and quarantine are keyed
// by name, so a redialling worker takes over its own stale session
// instead of sharing its identity. It reports whether w was admitted.
func (s *scheduler) hello(w *session) bool {
	if until, ok := s.until[w.name]; ok {
		if s.tick < until {
			s.log.Warn("fabric: refusing quarantined worker", "worker", w.name, "strikes", s.strikes[w.name])
			return false
		}
		delete(s.until, w.name)
		s.strikes[w.name] = 0
		s.stats.Readmitted++
		s.journal(fleet.Entry{Op: fleet.OpReadmit, Worker: w.name})
	}
	for _, old := range s.sessions {
		if old.name == w.name {
			s.drop(old, errors.New("replaced by a new session under the same name"))
		}
	}
	w.inflight = make(map[uint64]*granule)
	w.lastSeen = s.tick
	s.sessions = append(s.sessions, w)
	s.stats.Workers++
	s.stats.Joined++
	s.send(w, Msg{Type: MsgWelcome, Proto: ProtoVersion, PingMS: s.pingMS})
	s.dispatch()
	s.reap()
	return true
}

// result takes a granule's answer from w, which must hold it: a frame
// for anything else is ignored. A late copy (a straggler duplicate, a
// cross-validation copy past the quorum) only frees its slot: the first
// result wins, and purity makes every duplicate identical anyway.
// Cross-validated granules collect votes instead. A dropped session's
// frames are not answers.
func (s *scheduler) result(w *session, m Msg) {
	if w.dropped {
		return
	}
	w.lastSeen = s.tick
	if g, ok := w.inflight[m.ID]; ok {
		s.answer(w, g, m)
	}
	s.reap()
}

// answer frees w's holding of g and applies w's result to it.
func (s *scheduler) answer(w *session, g *granule, m Msg) {
	delete(w.inflight, g.id)
	g.holders--
	switch {
	case g.resolved:
		s.stats.LateResults++
		s.dispatch()
	case g.votesWanted > 1:
		s.vote(w, g, m)
	default:
		s.resolve(g, outcomeOf(m))
	}
}

// ping refreshes w's liveness and answers with a pong so the worker can
// detect a wedged session from its side.
func (s *scheduler) ping(w *session, m Msg) {
	if w.dropped {
		return
	}
	w.lastSeen = s.tick
	if w.suspect != 0 {
		w.suspect = 0
		s.log.Info("fabric: suspect worker recovered", "worker", w.name)
	}
	s.send(w, Msg{Type: MsgPong, ID: m.ID})
	s.reap()
}

// gone drops w: its connection failed, it sent a frame it should not
// have, or the coordinator is closing. Idempotent.
func (s *scheduler) gone(w *session, cause error) {
	s.drop(w, cause)
	s.reap()
}

// onTick advances the logical clock and runs every deadline on it:
// heartbeat classification and replica placement. One clock, so every
// deadline in the fleet is measured the same way.
func (s *scheduler) onTick() {
	s.tick++
	s.classify()
	live := s.order[:0]
	for _, g := range s.order {
		if !g.resolved {
			live = append(live, g)
			s.place(g)
		}
	}
	// The tail past the live granules still points at resolved ones:
	// clear it, or they stay reachable, values and all, until the slice
	// regrows over them.
	clear(s.order[len(live):])
	s.order = live
	s.reap()
}

// healthOf names w's state at the current tick: a pure function of its
// silence and the policy.
func (s *scheduler) healthOf(w *session) string {
	p, silent := s.health, s.tick-w.lastSeen
	switch {
	case p.SuspectAfter == 0 || s.tick <= w.lastSeen || silent < p.SuspectAfter:
		return "healthy"
	case p.DeadAfter > p.SuspectAfter && silent >= p.DeadAfter:
		return "dead"
	}
	return "suspect"
}

// classify acts on heartbeat silence: the dead are dropped and struck;
// suspects are only marked — the placement pass hedges their sole-held
// granules, and no strike is charged (a GC pause must not cost a worker
// its standing).
func (s *scheduler) classify() {
	for _, w := range s.sessions {
		if w.dropped {
			continue
		}
		switch s.healthOf(w) {
		case "dead":
			s.drop(w, fmt.Errorf("heartbeat: no frame for %d ticks", s.health.DeadAfter))
			s.strike(w.name, "heartbeat death")
		case "suspect":
			if w.suspect == 0 {
				w.suspect = s.tick
				s.stats.Suspects++
				s.log.Warn("fabric: worker suspect, hedging its granules",
					"worker", w.name, "inflight", len(w.inflight))
			}
		}
	}
}

// enqueue inserts g into the pending queue keeping ascending-id order,
// so re-queued granules rejoin at their original priority.
func (s *scheduler) enqueue(g *granule) {
	g.queued = true
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].id > g.id })
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = g
}

// unqueue removes and returns pending[i].
func (s *scheduler) unqueue(i int) *granule {
	g := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	g.queued = false
	return g
}

// dispatch issues pending granules, lowest id first, each to the
// session pick names, while any session has budget left. A granule no
// free session may take is passed over, not waited on; resolved
// granules met on the way are dropped from the queue.
func (s *scheduler) dispatch() {
	free := 0
	for _, w := range s.sessions {
		if !w.dropped {
			free += budget(w.slots) - len(w.inflight)
		}
	}
	for i := 0; free > 0 && i < len(s.pending); {
		g := s.pending[i]
		if g.resolved {
			s.unqueue(i)
		} else if w := s.pick(g, false); w != nil {
			s.issue(w, s.unqueue(i))
			free--
		} else {
			i++
		}
	}
}

// pick names the session that takes a copy of g: below budget, lowest
// held/slots fill (cross-multiplied: exact), ties in join order — so
// every execution slot in the fleet fills before anyone's prefetch slot.
// Never a dropped session, a holder or a voter; an extra copy (a vote
// or a hedge) never a suspect. nil means nobody can take it.
func (s *scheduler) pick(g *granule, extra bool) *session {
	var best *session
	for _, w := range s.sessions {
		if _, held := w.inflight[g.id]; held || w.dropped || len(w.inflight) >= budget(w.slots) ||
			(extra && w.suspect != 0) || g.voted(w.name) {
			continue
		}
		if best == nil || len(w.inflight)*best.slots < len(best.inflight)*w.slots {
			best = w
		}
	}
	return best
}

// issue sends g to w and records the holding.
func (s *scheduler) issue(w *session, g *granule) {
	w.inflight[g.id] = g
	g.holders++
	g.issuedTick = s.tick
	s.send(w, Msg{Type: MsgWork, ID: g.id, Kind: g.kind, Key: g.key, Spec: g.spec})
}

// send hands m to the port; a full outbox means the worker stopped
// draining its socket, and it is dropped like a dead one.
func (s *scheduler) send(w *session, m Msg) {
	if !w.dropped && !s.port.send(w, m) {
		s.drop(w, errors.New("outbox overflow: worker not draining its connection"))
	}
}

// journal stamps e with the logical clock and hands it to the port.
func (s *scheduler) journal(e fleet.Entry) {
	e.Tick = s.tick
	s.port.journal(e)
}

// resolve makes g final, forgets its key, wakes its waiters and
// re-dispatches. Other holders keep their copies until they answer.
func (s *scheduler) resolve(g *granule, out outcome) {
	g.resolved = true
	g.outcome = out
	delete(s.byKey, g.key)
	s.stats.Completed++
	s.port.resolve(g)
	s.dispatch()
}

// vote records w's answer to a cross-validated granule and decides it
// once enough votes are in (or no further voter exists).
func (s *scheduler) vote(w *session, g *granule, m Msg) {
	if !g.voted(w.name) {
		g.votes = append(g.votes, vote{worker: w.name, outcome: outcomeOf(m)})
	}
	// Divergence between the first two answers escalates to a third
	// opinion before anyone is accused or anything is decided — this
	// must run before the quorum check, or a 1-vs-1 split would be
	// settled by "accept the first answer" and a lie could win.
	if len(g.votes) == 2 && g.votes[0].digest() != g.votes[1].digest() && g.votesWanted < 3 {
		g.votesWanted = 3
		s.stats.Divergent++
		s.log.Warn("fabric: cross-validation divergence, escalating to a third worker",
			"granule", g.id, "kind", g.kind, "voters", g.votes[0].worker+","+g.votes[1].worker)
	}
	if len(g.votes) >= g.votesWanted {
		s.decide(g)
		return
	}
	// Place the next copy now rather than a tick later — or, when no one
	// is left to produce another vote, settle with what we have.
	s.place(g)
	s.dispatch()
}

// decide settles a cross-validated granule: the largest group of
// byte-identical answers wins, and when a majority exists every worker
// outside it is quarantined — a pure function returned a different
// answer, so the outlier lied (or its link corrupted results
// systematically, which deserves the same treatment).
func (s *scheduler) decide(g *granule) {
	groups := make(map[string]int)
	for _, v := range g.votes {
		groups[v.digest()]++
	}
	winner, best := g.votes[0], 0
	for _, v := range g.votes {
		if n := groups[v.digest()]; n > best {
			winner, best = v, n
		}
	}
	s.stats.Validated++
	if len(groups) > 1 && best >= 2 {
		for _, v := range g.votes {
			if v.digest() != winner.digest() {
				s.quarantine(v.worker, fmt.Sprintf("divergent answer on granule %d (%s)", g.id, g.kind))
			}
		}
	} else if len(groups) > 1 {
		// Every answer differs: no majority to trust, nobody can be
		// blamed. Take the first answer and say so loudly.
		s.log.Warn("fabric: cross-validation inconclusive, accepting first answer",
			"granule", g.id, "kind", g.kind, "answers", len(groups))
	}
	s.resolve(g, winner.outcome)
}

// place is the one "run this granule somewhere else too" decision. It
// returns early for a granule whose live copies suffice. Otherwise it
// issues the missing copies to the sessions pick names:
//   - validating: cross-validation still needs votes that no cast vote
//     or held copy accounts for;
//   - straggler: the granule aged past the straggle deadline — one more
//     copy, and a strike for every stale holder;
//   - suspect: the sole holder turned suspect this very tick — one more
//     copy, no strike. A hedge retried every tick would race the
//     eviction deadline, whose re-queue is the backstop.
//
// When no session can cast a missing vote the granule is settled with
// the votes in hand rather than parked. A queued granule is left to
// dispatch — the queue is its one place — unless it holds votes an
// exhausted electorate must settle.
func (s *scheduler) place(g *granule) {
	if g.queued && len(g.votes) == 0 {
		return
	}
	electorate, soleSuspect := 0, false
	for _, w := range s.sessions {
		if w.dropped {
			continue
		}
		if _, held := w.inflight[g.id]; held && g.holders == 1 {
			soleSuspect = w.suspect != 0 && w.suspect == s.tick
		}
		if !g.voted(w.name) {
			electorate++
		}
	}
	// want is the number of live copies g should have; a hedge is a
	// copy beyond what the election needs.
	want, hedge, straggler := g.holders, true, false
	switch need := g.votesWanted - len(g.votes); {
	case g.votesWanted > 1 && g.holders < need:
		if g.holders == 0 && len(g.votes) > 0 && electorate == 0 {
			s.decide(g)
			return
		}
		want, hedge = need, false
	case g.holders == 0:
		return
	case s.straggleAfter > 0 && s.tick-g.issuedTick >= s.straggleAfter:
		want, straggler = g.holders+1, true
	case g.holders == 1 && soleSuspect:
		want = 2
	default:
		return
	}
	if g.queued {
		return
	}
	for g.holders < want {
		w := s.pick(g, true)
		if w == nil {
			return
		}
		if straggler {
			// Repeatedly sitting on granules past the straggle deadline is
			// the timeout pattern the circuit breaker exists for.
			for _, h := range s.sessions {
				if _, stale := h.inflight[g.id]; stale && !h.dropped {
					s.strike(h.name, "straggling granule re-issued")
				}
			}
		}
		if hedge {
			s.stats.Duplicated++
			s.log.Info("fabric: granule duplicated", "granule", g.id, "kind", g.kind, "worker", w.name)
		}
		s.issue(w, g)
	}
}

// strike charges one fault to a worker name; the tripAfter-th
// quarantines it.
func (s *scheduler) strike(name, reason string) {
	s.strikes[name]++
	if s.strikes[name] >= tripAfter {
		s.quarantine(name, reason)
	}
}

// quarantine refuses the name's handshakes for the probation window,
// journals the decision, and drops its live session, if any, now.
func (s *scheduler) quarantine(name, reason string) {
	if _, ok := s.until[name]; ok {
		return
	}
	s.strikes[name] = tripAfter
	s.until[name] = s.tick + probation
	s.stats.Quarantined++
	s.journal(fleet.Entry{Op: fleet.OpQuarantine, Worker: name})
	s.log.Warn("fabric: worker quarantined", "worker", name, "reason", reason)
	for _, w := range s.sessions {
		if w.name == name {
			s.drop(w, fmt.Errorf("quarantined: %s", reason))
		}
	}
}

// drop makes w ineligible at once; reap removes it.
func (s *scheduler) drop(w *session, cause error) {
	if w.dropped {
		return
	}
	w.dropped, w.cause = true, cause
	s.dropping = append(s.dropping, w)
}

// reap removes every session dropped during the step: closes it
// through the port, re-queues every granule it alone held, and
// re-dispatches — which may drop more sessions, reaped in turn.
func (s *scheduler) reap() {
	for len(s.dropping) > 0 {
		for _, w := range s.dropping {
			s.remove(w)
		}
		s.dropping = s.dropping[:0]
		s.dispatch()
	}
}

func (s *scheduler) remove(w *session) {
	for i, ww := range s.sessions {
		if ww == w {
			s.sessions = append(s.sessions[:i], s.sessions[i+1:]...)
			break
		}
	}
	s.stats.Workers--
	s.stats.Died++
	s.port.drop(w, w.cause)
	ids := make([]uint64, 0, len(w.inflight))
	for id := range w.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	requeued := 0
	for _, id := range ids {
		g := w.inflight[id]
		g.holders--
		if g.resolved || g.holders > 0 || g.queued {
			continue
		}
		s.enqueue(g)
		s.stats.Requeued++
		requeued++
	}
	w.inflight = nil
	s.log.Warn("fabric: worker gone", "worker", w.name, "cause", w.cause.Error(), "requeued", requeued)
}

// ticksFor converts a wall duration to a whole number of ticks, at
// least 1.
func ticksFor(d, tick time.Duration) uint64 {
	n := uint64(d / tick)
	if n == 0 {
		n = 1
	}
	return n
}
