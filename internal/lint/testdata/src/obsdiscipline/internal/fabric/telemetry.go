// Package fabric is a miniature of the sweep fabric's worker-side probe
// set: the nil-receiver guard rule extends here, but only to
// WorkerTelemetry and the ReprobeSet — the coordinator publishes its
// counters at snapshot time and is never nil by contract.
package fabric

import "lpm/internal/obs"

// WorkerTelemetry is the worker-side probe set.
type WorkerTelemetry struct {
	reg      *obs.Registry
	hits     *obs.Counter
	executed *obs.Counter
}

// prefix namespaces the per-worker gauges.
const prefix = "fabric.worker."

// NewWorkerTelemetry wires the probes; nil registry, nil telemetry.
func NewWorkerTelemetry(reg *obs.Registry) *WorkerTelemetry {
	if reg == nil {
		return nil
	}
	return &WorkerTelemetry{
		reg:      reg,
		hits:     reg.Counter("worker.cache_probe_hits"),
		executed: reg.Counter("worker.granules_executed"),
	}
}

// ProbeHit records one shared-cache hit — properly guarded.
func (t *WorkerTelemetry) ProbeHit() {
	if t == nil {
		return
	}
	t.hits.Add(1)
}

// Slot bumps a per-worker gauge: a dynamic prefix with a constant
// suffix is the accepted idiom.
func (t *WorkerTelemetry) Slot(worker string) {
	if t == nil {
		return
	}
	t.reg.Gauge(prefix + worker + ".inflight").Add(1)
}

// Executed counts a granule but forgets the guard: the probe must stay
// a no-op on the nil (telemetry-off) receiver.
func (t *WorkerTelemetry) Executed() { // want "dereferences its receiver without the nil-receiver guard"
	t.executed.Add(1)
}

// Dynamic registers a fully dynamic metric name, which destabilises
// snapshot ordering.
func (t *WorkerTelemetry) Dynamic(name string) {
	if t == nil {
		return
	}
	t.reg.Counter(name).Add(1) // want "must be a string constant or end in a constant suffix"
}

// Coordinator is fabric machinery, not a probe set: no guard required.
type Coordinator struct{ pending int }

// Submit dereferences its receiver unguarded — allowed, the rule only
// covers the probe types.
func (c *Coordinator) Submit() {
	c.pending++
}

// ReprobeSet remembers abandoned granule keys; it shares the
// nil-receiver contract so an unwired worker pays nothing.
type ReprobeSet struct{ keys map[string]struct{} }

// Add records a key — properly guarded.
func (s *ReprobeSet) Add(key string) {
	if s == nil {
		return
	}
	s.keys[key] = struct{}{}
}

// Len forgets the guard.
func (s *ReprobeSet) Len() int { // want "dereferences its receiver without the nil-receiver guard"
	return len(s.keys)
}
