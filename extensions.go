package lpm

import (
	"context"

	"lpm/internal/sched"
	"lpm/internal/sim/coherence"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// This file re-exports the extension surface — workload composition,
// the interconnect, coherence, scheduling — so downstream users reach
// everything through the single public package.

// WithOffset relocates a workload's private addresses (disjoint address
// spaces for co-runners); addresses at or above GlobalBase pass through.
func WithOffset(g Workload, base uint64) Workload { return trace.WithOffset(g, base) }

// WithSharedRegion redirects a fraction of accesses into a region common
// to all co-runners (true sharing, for coherent chips).
func WithSharedRegion(g Workload, base, size uint64, frac float64, seed uint64) Workload {
	return trace.WithSharedRegion(g, base, size, frac, seed)
}

// GlobalBase is the start of the never-relocated shared address space.
const GlobalBase = trace.GlobalBase

// Interconnect and coherence.
type (
	// NoCConfig describes the optional L1↔LLC crossbar.
	NoCConfig = noc.Config
	// NoCRouter is the crossbar instance (via Chip.Router).
	NoCRouter = noc.Router
	// CoherenceDirectory is the MSI directory (via Chip.Directory).
	CoherenceDirectory = coherence.Directory
)

// DefaultNoC returns the default fabric for the given requestor count.
func DefaultNoC(sources int) NoCConfig { return noc.Default(sources) }

// Scheduling (case study II).
type (
	// SchedProfileTable is the per-workload, per-L1-size profiling data
	// (Fig. 6/7).
	SchedProfileTable = sched.ProfileTable
	// RandomScheduler, RoundRobinScheduler, NUCASAScheduler and
	// PIEScheduler are the four policies.
	RandomScheduler     = sched.Random
	RoundRobinScheduler = sched.RoundRobin
	NUCASAScheduler     = sched.NUCASA
	PIEScheduler        = sched.PIE
	// SchedEvalOptions parameterise an Hsp evaluation;
	// SchedProfileOptions the profiling runs.
	SchedEvalOptions    = sched.EvalOptions
	SchedProfileOptions = sched.ProfileOptions
)

// SchedProfileOptionsQuick returns reduced profiling budgets for smoke
// runs and tests.
func SchedProfileOptionsQuick() SchedProfileOptions {
	return SchedProfileOptions{Instructions: 6000, Warmup: 15000}
}

// BuildSchedProfileTable profiles workloads standalone at each L1 size.
func BuildSchedProfileTable(ctx context.Context, names []string, sizes []uint64, opt SchedProfileOptions) (*SchedProfileTable, error) {
	return sched.BuildProfileTable(ctx, names, sizes, opt)
}

// EvaluateScheduler runs a policy on the Fig. 5 NUCA chip and returns
// its Hsp evaluation.
func EvaluateScheduler(ctx context.Context, s Scheduler, workloads []string, sizes []uint64, opt SchedEvalOptions) (*SchedEvaluation, error) {
	return sched.Evaluate(ctx, s, workloads, sizes, opt)
}
