package lpm

import (
	"context"

	"lpm/internal/phase"
	"lpm/internal/sched"
	"lpm/internal/sim/coherence"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// This file re-exports the extension surface — SMT, the interconnect,
// coherence, phase detection, scheduling — so downstream users reach
// everything through the single public package.

// SMT and workload composition.
type (
	// SMTCore is a simultaneous-multithreading core (paper §II: SMT
	// raises C_H and C_M).
	SMTCore = cpu.SMT
	// PhasedWorkload switches behaviour profiles via a Markov chain.
	PhasedWorkload = trace.Phased
)

// NewSMT builds an SMT core over per-thread workloads.
func NewSMT(cfg CPUConfig, gens []Workload, mem cpu.MemPort) *SMTCore {
	return cpu.NewSMT(cfg, gens, mem)
}

// NewPhasedWorkload builds a Markov-phased workload.
func NewPhasedWorkload(name string, profiles []WorkloadProfile, trans [][]float64, dwell int, seed uint64) *PhasedWorkload {
	return trace.NewPhased(name, profiles, trans, dwell, seed)
}

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

// Phase detection.
type (
	// PhaseSignature is one interval's behaviour vector.
	PhaseSignature = phase.Signature
	// PhaseDetector classifies interval signatures online.
	PhaseDetector = phase.Detector
	// PhaseTracker adds change detection and per-phase config memory.
	PhaseTracker = phase.Tracker
)

// NewPhaseDetector returns a detector (0 for the default threshold).
func NewPhaseDetector(threshold float64) *PhaseDetector { return phase.NewDetector(threshold) }

// NewPhaseTracker wraps a detector (nil for defaults).
func NewPhaseTracker(det *PhaseDetector) *PhaseTracker { return phase.NewTracker(det) }

// PhaseSignatureFromLPM builds the standard signature from interval
// measurements.
func PhaseSignatureFromLPM(fmem, mr1, pmr1, ch, cm, ipc float64) PhaseSignature {
	return phase.FromLPM(fmem, mr1, pmr1, ch, cm, ipc)
}

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
