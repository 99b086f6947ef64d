package fleet

// Circuit-breaker quarantine. Workers accumulate strikes — timeouts,
// health ejections, cross-validation divergence — and trip into
// quarantine at a threshold; a quarantined worker's handshakes are
// refused until a probation window of coordinator ticks has passed.
// Cross-validation divergence is instant quarantine: a worker that
// returned a different answer for the same pure granule is lying, and
// one lie is one too many.
//
// Like HealthTracker, a Quarantine has no internal lock: the
// coordinator owns it under its scheduling mutex, and the journal
// snapshot/restore hooks let a resumed coordinator carry quarantine
// decisions across a kill -9.

import "sort"

// QuarantinePolicy sets the breaker thresholds.
type QuarantinePolicy struct {
	// TripAfter is the strike count that trips the breaker. Zero or
	// negative disables strike-based quarantine (divergence still trips).
	TripAfter int
	// Probation is the tick count a tripped worker stays blocked.
	// Zero means quarantine is permanent for the life of the sweep.
	Probation uint64
}

// Quarantine tracks strikes and active quarantine windows by worker
// name.
type Quarantine struct {
	policy  QuarantinePolicy
	strikes map[string]int
	// until maps a quarantined worker to the tick at which probation
	// ends; permanent() sentinels never expire.
	until map[string]uint64
}

const permanentQuarantine = ^uint64(0)

// NewQuarantine returns a breaker with the given policy.
func NewQuarantine(policy QuarantinePolicy) *Quarantine {
	return &Quarantine{
		policy:  policy,
		strikes: make(map[string]int),
		until:   make(map[string]uint64),
	}
}

// Strike records one fault against the named worker at tick now and
// reports whether it tripped the breaker (transitioned into
// quarantine on this strike).
func (q *Quarantine) Strike(name string, now uint64) bool {
	if q == nil {
		return false
	}
	q.strikes[name]++
	if q.policy.TripAfter <= 0 || q.strikes[name] < q.policy.TripAfter {
		return false
	}
	if q.blockedAt(name, now) {
		return false
	}
	q.block(name, now)
	return true
}

// QuarantineNow trips the breaker immediately (cross-validation caught
// the worker lying). Reports whether this call newly quarantined it.
func (q *Quarantine) QuarantineNow(name string, now uint64) bool {
	if q == nil {
		return false
	}
	q.strikes[name] = q.policy.TripAfter
	if q.blockedAt(name, now) {
		return false
	}
	q.block(name, now)
	return true
}

func (q *Quarantine) block(name string, now uint64) {
	if q.policy.Probation == 0 {
		q.until[name] = permanentQuarantine
		return
	}
	q.until[name] = now + q.policy.Probation
}

func (q *Quarantine) blockedAt(name string, now uint64) bool {
	until, ok := q.until[name]
	if !ok {
		return false
	}
	return until == permanentQuarantine || now < until
}

// Blocked reports whether the named worker is quarantined at tick now.
// An expired probation readmits the worker as a side effect, with its
// strike count reset to zero — readmission is a clean slate.
func (q *Quarantine) Blocked(name string, now uint64) bool {
	if q == nil {
		return false
	}
	until, ok := q.until[name]
	if !ok {
		return false
	}
	if until != permanentQuarantine && now >= until {
		delete(q.until, name)
		q.strikes[name] = 0
		return false
	}
	return true
}

// Admit is the handshake gate: ok reports whether the named worker may
// join at tick now, and readmitted whether this very call ended its
// probation (the caller wants to log/journal that exactly once).
func (q *Quarantine) Admit(name string, now uint64) (ok, readmitted bool) {
	if q == nil {
		return true, false
	}
	_, wasBlocked := q.until[name]
	blocked := q.Blocked(name, now)
	return !blocked, wasBlocked && !blocked
}

// Strikes returns the current strike count for the named worker.
func (q *Quarantine) Strikes(name string) int {
	if q == nil {
		return 0
	}
	return q.strikes[name]
}

// Snapshot returns the names currently quarantined (for journaling).
func (q *Quarantine) Snapshot() []string {
	if q == nil {
		return nil
	}
	names := make([]string, 0, len(q.until))
	for name := range q.until {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Restore re-quarantines the named workers with a fresh probation
// window starting at tick now. A resumed coordinator cannot know how
// much of the old probation had elapsed (its tick clock restarted), so
// the conservative choice is to restart it.
func (q *Quarantine) Restore(names []string, now uint64) {
	if q == nil {
		return
	}
	for _, name := range names {
		q.strikes[name] = q.policy.TripAfter
		q.block(name, now)
	}
}
