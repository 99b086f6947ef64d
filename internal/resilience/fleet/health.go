package fleet

// Heartbeat health classification. The coordinator advances a logical
// tick counter on its own cadence and records the tick at which each
// worker last proved liveness (any frame counts; ping frames exist so
// an idle worker still proves it). Classification is then a pure
// function of (lastSeen, now, policy) — no wall-clock reads — which
// keeps the chaos suite's hung-TCP scenarios replayable.

// HealthState is a worker's liveness classification.
type HealthState int

const (
	// Healthy workers have been heard from within SuspectAfter ticks.
	Healthy HealthState = iota
	// Suspect workers have gone quiet past SuspectAfter but not yet
	// DeadAfter ticks: their granules are proactively duplicated
	// elsewhere, but the connection is kept in case they wake up.
	Suspect
	// Dead workers passed DeadAfter ticks of silence: the session is
	// torn down and their granules re-queued outright.
	Dead
)

// String names the state for logs and metrics.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// HealthPolicy sets the classification deadlines in coordinator ticks.
type HealthPolicy struct {
	// SuspectAfter is the silent-tick count after which a worker turns
	// Suspect. Zero or negative disables classification (always Healthy).
	SuspectAfter uint64
	// DeadAfter is the silent-tick count after which a worker is Dead.
	// Must exceed SuspectAfter to give the suspect window meaning.
	DeadAfter uint64
}

// Classify returns the state of a worker last heard from at lastSeen
// when the clock reads now. Pure: same inputs, same answer.
func (p HealthPolicy) Classify(lastSeen, now uint64) HealthState {
	if p.SuspectAfter == 0 || now <= lastSeen {
		return Healthy
	}
	silent := now - lastSeen
	if p.DeadAfter > p.SuspectAfter && silent >= p.DeadAfter {
		return Dead
	}
	if silent >= p.SuspectAfter {
		return Suspect
	}
	return Healthy
}

// HealthTracker maps worker names to their last-seen tick. It holds no
// lock of its own: the coordinator mutates it under its own mutex, the
// same way it guards the rest of the scheduling state.
type HealthTracker struct {
	policy   HealthPolicy
	lastSeen map[string]uint64
}

// NewHealthTracker returns a tracker classifying with the given policy.
func NewHealthTracker(policy HealthPolicy) *HealthTracker {
	return &HealthTracker{policy: policy, lastSeen: make(map[string]uint64)}
}

// Observe records proof of liveness from the named worker at tick now.
func (h *HealthTracker) Observe(name string, now uint64) {
	if h == nil {
		return
	}
	h.lastSeen[name] = now
}

// Forget drops a worker (on disconnect) so a later rejoin starts fresh.
func (h *HealthTracker) Forget(name string) {
	if h == nil {
		return
	}
	delete(h.lastSeen, name)
}

// State classifies the named worker at tick now. Workers never observed
// are Healthy — the dial handshake is their first proof of life.
func (h *HealthTracker) State(name string, now uint64) HealthState {
	if h == nil {
		return Healthy
	}
	last, ok := h.lastSeen[name]
	if !ok {
		return Healthy
	}
	return h.policy.Classify(last, now)
}
