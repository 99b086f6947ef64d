package fabric

// Fabric telemetry. The coordinator keeps one set of counts — Stats —
// and Coordinator.ObsSnapshot publishes it into an internal/obs
// registry at scrape time, so the fleet control plane (cmd/lpmserve)
// can expose queue depth, re-issue churn and cache efficiency on one
// Prometheus endpoint. Only the worker side, whose execution slots run
// concurrently and have no Stats to publish from, keeps a probe set.

import (
	"sync"
	"time"

	"lpm/internal/obs"
)

// ObsSnapshot publishes Stats and the queue shape into the Obs registry
// and captures it (nil when no registry was configured). Stats is the
// only count of fleet events; the fabric.* series are written here
// (dropping a session also zeroes its departed worker's in-flight gauge),
// under the coordinator mutex that guards both, so the snapshot is
// consistent and safe to call from serving goroutines.
func (c *Coordinator) ObsSnapshot() *obs.Snapshot {
	reg := c.opts.Obs
	if reg == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inflight := 0
	for _, w := range c.s.sessions {
		inflight += len(w.inflight)
		reg.Gauge("fabric.worker." + promSafe(w.name) + ".inflight").Set(float64(len(w.inflight)))
	}
	reg.Gauge("fabric.workers").Set(float64(len(c.s.sessions)))
	reg.Gauge("fabric.pending_depth").Set(float64(len(c.s.pending)))
	reg.Gauge("fabric.inflight").Set(float64(inflight))
	s := c.s.stats
	reg.Counter("fabric.workers_joined").Set(uint64(s.Joined))
	reg.Counter("fabric.workers_died").Set(uint64(s.Died))
	reg.Counter("fabric.granules_submitted").Set(uint64(s.Submitted))
	reg.Counter("fabric.granules_completed").Set(uint64(s.Completed))
	reg.Counter("fabric.granules_requeued").Set(uint64(s.Requeued))
	reg.Counter("fabric.stragglers_duplicated").Set(uint64(s.Duplicated))
	reg.Counter("fabric.late_results_ignored").Set(uint64(s.LateResults))
	reg.Counter("fabric.cache_hits").Set(uint64(s.CacheHits))
	reg.Counter("fabric.heartbeats").Set(uint64(s.Heartbeats))
	reg.Counter("fabric.workers_suspected").Set(uint64(s.Suspects))
	reg.Counter("fabric.granules_retried").Set(uint64(s.Retried))
	reg.Counter("fabric.workers_quarantined").Set(uint64(s.Quarantined))
	reg.Counter("fabric.workers_readmitted").Set(uint64(s.Readmitted))
	reg.Counter("fabric.granules_validated").Set(uint64(s.Validated))
	reg.Counter("fabric.validations_divergent").Set(uint64(s.Divergent))
	return reg.Snapshot()
}

// promSafe flattens a worker name (usually host:port) into a metric-name
// segment: anything outside [a-zA-Z0-9_] becomes '_', matching what the
// Prometheus renderer would do anyway but keeping registry keys stable.
func promSafe(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

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
