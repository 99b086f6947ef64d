// Package fabric is a miniature of the sweep fabric's worker-side probe
// set: the nil-receiver guard rule extends here, but only to
// WorkerTelemetry — the coordinator publishes its counters at snapshot
// time and is never nil by contract.
package fabric

import "lpm/internal/obs"

// WorkerTelemetry is the worker-side probe set.
type WorkerTelemetry struct {
	reg       *obs.Registry
	abandoned *obs.Counter
	executed  *obs.Counter
}

// prefix namespaces the per-worker gauges.
const prefix = "fabric.worker."

// NewWorkerTelemetry wires the probes; nil registry, nil telemetry.
func NewWorkerTelemetry(reg *obs.Registry) *WorkerTelemetry {
	if reg == nil {
		return nil
	}
	return &WorkerTelemetry{
		reg:       reg,
		abandoned: reg.Counter("worker.granules_abandoned"),
		executed:  reg.Counter("worker.granules_executed"),
	}
}

// Abandoned records one granule dropped on shutdown — properly guarded.
func (t *WorkerTelemetry) Abandoned() {
	if t == nil {
		return
	}
	t.abandoned.Add(1)
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
// covers the probe type.
func (c *Coordinator) Submit() {
	c.pending++
}
