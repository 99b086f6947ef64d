// Package ctrl is the fleet control plane of the LPM reproduction: a
// registry of concurrent simulation runs with a versioned JSON API
// (lpm-ctrl/v1) for submit/list/status/cancel, a scheduler enforcing
// per-tenant concurrency budgets on top of internal/parallel's worker
// budget, live timeline streaming over SSE (a slow consumer skips the
// windows it fell too far behind for, with drop accounting, instead of
// stalling the simulation), and a single fleet-wide Prometheus endpoint
// aggregating every run's observability snapshot.
//
// Each run publishes into one Hub, the run's only stream: its series
// header, append-only log of seq-stamped final windows (bounded by
// timeseries.DefaultMaxWindows), latest obs snapshot and finished flag.
// SSE, /timeline and /metrics all read it; lpmrun -serve publishes into
// a Hub too, and expo.go here hosts the handlers both binaries share.
// All control-plane metrics live in an internal/obs registry guarded by
// the registry mutex.
package ctrl

import (
	"fmt"
	"time"

	"lpm"
	"lpm/internal/obs/timeseries"
	"lpm/internal/trace"
)

// APIVersion stamps every lpm-ctrl JSON response; bump on any
// incompatible change to the API document shapes.
const APIVersion = "lpm-ctrl/v1"

// RunState is a run's lifecycle state.
type RunState string

// Run lifecycle states. A run moves pending → running → one of the
// three terminal states; Cancel on a pending run goes straight to
// StateCancelled.
const (
	StatePending   RunState = "pending"
	StateRunning   RunState = "running"
	StateDone      RunState = "done"
	StateFailed    RunState = "failed"
	StateCancelled RunState = "cancelled"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunSpec is a submitted run request: one workload simulated on the
// default single-core chip, mirroring lpmrun's flag set.
type RunSpec struct {
	// Tenant attributes the run for per-tenant concurrency budgeting
	// and fleet metric labels; empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workload is a built-in workload profile name (lpmrun -list).
	Workload string `json:"workload"`
	// Instructions is the measured window length (0 = 30000).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup is the discarded warm-up length (0 = 150000).
	Warmup uint64 `json:"warmup,omitempty"`
	// WarmupFast runs the warm-up in the functional tier.
	WarmupFast bool `json:"warmup_fast,omitempty"`
	// TSWindow is the timeline window width in cycles (0 = default).
	TSWindow uint64 `json:"ts_window,omitempty"`
	// Watchdog is the no-progress cycle budget before a livelock
	// diagnostic (0 = off).
	Watchdog uint64 `json:"watchdog,omitempty"`
}

// MaxSpecBytes bounds a submitted RunSpec body; a spec is a few hundred
// bytes.
const MaxSpecBytes = 64 << 10

// Normalize fills defaults and validates the spec. It is called once at
// submit time so a bad request fails the API call, not the run.
func (s *RunSpec) Normalize() error {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Workload == "" {
		return fmt.Errorf("ctrl: run spec missing workload")
	}
	if _, err := trace.ProfileByName(s.Workload); err != nil {
		return fmt.Errorf("ctrl: %w", err)
	}
	// The run would refuse the spec too; refusing it here makes it a
	// 400 at submit time instead of a failed run.
	if s.Instructions > lpm.MaxRunInstructions || s.Warmup > lpm.MaxRunInstructions {
		return fmt.Errorf("ctrl: instructions %d / warmup %d over the cap of %d each",
			s.Instructions, s.Warmup, lpm.MaxRunInstructions)
	}
	if s.Instructions == 0 {
		s.Instructions = 30000
	}
	if s.Warmup == 0 {
		s.Warmup = 150000
	}
	return nil
}

// RunStatus is the API view of one run.
type RunStatus struct {
	// API is APIVersion.
	API string `json:"api"`
	// ID is the registry-assigned run identifier ("r-1", "r-2", ...).
	ID string `json:"id"`
	// State is the run's lifecycle state.
	State RunState `json:"state"`
	// Spec echoes the normalized submission.
	Spec RunSpec `json:"spec"`
	// Error carries the failure or cancellation cause in terminal
	// states.
	Error string `json:"error,omitempty"`
	// Windows is the number of timeline windows published so far.
	Windows int `json:"windows"`
	// Submitted, Started and Finished are wall-clock lifecycle stamps;
	// zero-valued ones are omitted.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// RunList is the GET /api/v1/runs response.
type RunList struct {
	// API is APIVersion.
	API string `json:"api"`
	// Runs lists every known run in submission order.
	Runs []RunStatus `json:"runs"`
}

// apiError is the JSON error envelope.
type apiError struct {
	API   string `json:"api"`
	Error string `json:"error"`
}

// TimelineSchema versions the /timeline JSON document (shared with
// lpmrun -serve).
const TimelineSchema = "lpm-timeline/v1"

// TimelineDoc is the /timeline response envelope.
type TimelineDoc struct {
	// Schema is TimelineSchema.
	Schema string `json:"schema"`
	// Done reports whether the simulation has finished.
	Done bool `json:"done"`
	// Series is the windowed timeline published so far: the newest
	// timeseries.DefaultMaxWindows windows, older ones counted in
	// Series.Dropped.
	Series timeseries.Series `json:"series"`
}
