// Package fabric is a miniature of the sweep fabric's worker-side probe
// set: the metric-name rule applies outside the obs and sim trees too.
package fabric

import "lpm/internal/obs"

// WorkerTelemetry is the worker-side probe set.
type WorkerTelemetry struct{ reg *obs.Registry }

// prefix namespaces the per-worker gauges.
const prefix = "fabric.worker."

// Slot bumps a per-worker gauge: a dynamic prefix with a constant
// suffix is the accepted idiom.
func (t *WorkerTelemetry) Slot(worker string) {
	t.reg.Gauge(prefix + worker + ".inflight").Add(1)
}

// Dynamic registers a fully dynamic metric name, which destabilises
// snapshot ordering.
func (t *WorkerTelemetry) Dynamic(name string) {
	t.reg.Counter(name).Add(1) // want "must be a string constant or end in a constant suffix"
}
