package fabric

// Worker telemetry. The coordinator's only count of fleet events is
// Stats; the worker side, whose execution slots run concurrently and
// have no Stats to publish from, keeps this probe set, and lpmworker
// logs its exit summary from it.

import (
	"sync"
	"time"

	"lpm/internal/obs"
)

// WorkerTelemetry is the worker-side probe set: granule execution
// latency and counts. Unlike the coordinator, a worker executes
// granules on concurrent slots, so this type carries its own mutex
// around the unsynchronised registry's handles. The nil receiver is the
// off switch; read the registry once RunWorker has returned.
type WorkerTelemetry struct {
	mu        sync.Mutex
	executed  *obs.Counter
	failed    *obs.Counter
	abandoned *obs.Counter
	latency   *obs.Histogram
}

// NewWorkerTelemetry wires the worker probes into reg; nil registry,
// nil telemetry.
func NewWorkerTelemetry(reg *obs.Registry) *WorkerTelemetry {
	if reg == nil {
		return nil
	}
	return &WorkerTelemetry{
		executed:  reg.Counter("worker.granules_executed"),
		failed:    reg.Counter("worker.granules_failed"),
		abandoned: reg.Counter("worker.granules_abandoned"),
		latency:   reg.Histogram("worker.granule_seconds", 0, 30, 120),
	}
}

// Executed records one locally computed granule and its wall clock.
func (w *WorkerTelemetry) Executed(latency time.Duration, failed bool) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.executed.Inc()
	if failed {
		w.failed.Inc()
	}
	w.latency.Observe(latency.Seconds())
}

// Abandoned records a granule dropped mid-execution by shutdown.
func (w *WorkerTelemetry) Abandoned() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.abandoned.Inc()
}
