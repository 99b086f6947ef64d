// Package lpm is a from-scratch Go reproduction of "LPM:
// Concurrency-driven Layered Performance Matching" (Yu-Hang Liu and
// Xian-He Sun, ICPP 2015).
//
// The package re-exports the library's public surface:
//
//   - the C-AMAT model (Eq. 1-4) and the LPM model relating layered
//     performance mismatch to data stall time (Eq. 5-15) — see CAMAT,
//     Measurement, and the LPMR/Stall/Threshold methods;
//   - the LPMR-reduction algorithm of the paper's Fig. 3 — see Run,
//     Target, AlgorithmConfig;
//   - the C-AMAT analyzer (hit/miss concurrency detectors, Fig. 4) —
//     see Analyzer;
//   - a full cycle-level CMP simulator substrate (out-of-order cores,
//     non-blocking multi-banked caches with MSHRs, DRAM timing) — see
//     Chip and the chip configuration helpers;
//   - synthetic SPEC CPU2006-like workloads — see Workload helpers;
//   - the paper's two case studies (reconfigurable-architecture design
//     space exploration; NUCA-aware scheduling) and every
//     table/figure-regeneration harness — see experiments.go.
//
// Everything is implemented with the Go standard library only. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package lpm

import (
	"lpm/internal/analyzer"
	"lpm/internal/core"
	"lpm/internal/explore"
	"lpm/internal/interval"
	"lpm/internal/obs"
	"lpm/internal/parallel"
	"lpm/internal/sched"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/trace"
)

// Parallel simulation runner. Every experiment driver fans its
// independent simulations out over a shared worker pool and memoises
// results content-keyed on the full simulation input; see
// EXPERIMENTS.md ("Parallel execution").

// SetWorkers bounds the simulation fan-out concurrency; n <= 0 restores
// the default, runtime.GOMAXPROCS(0). The CLIs expose it as -workers.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// ParallelWorkers returns the current fan-out concurrency bound.
func ParallelWorkers() int { return parallel.Workers() }

// ResetSimCaches drops every memoised simulation result (and zeroes the
// memo hit/miss counters), forcing the next evaluations to re-simulate.
// Benchmarks and determinism tests use it; ordinary callers never need
// to.
func ResetSimCaches() { parallel.ResetAllMemos() }

// Observability layer (see internal/obs and EXPERIMENTS.md
// "Observability").
type (
	// MetricsRegistry is a typed counter/gauge/histogram registry the
	// simulator components publish into; attach one with
	// Chip.EnableObs.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a versioned, JSON-serialisable capture of a
	// registry; Measurement.Obs carries one per measurement window.
	MetricsSnapshot = obs.Snapshot
	// EventTracer buffers memory-request lifecycle events for
	// Chrome-trace / JSONL export; attach one with Chip.AttachTracer.
	EventTracer = obs.Tracer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventTracer returns an empty event tracer with the default buffer
// limit.
func NewEventTracer() *EventTracer { return obs.NewTracer() }

// SimCacheStats returns the cumulative hit and miss counts of the
// process-wide simulation memo pool.
func SimCacheStats() (hits, misses int64) { return parallel.MemoStats() }

// PublishRuntimeMetrics copies process-level runtime counters (the
// simulation memo pool's hits and misses) into r as "sim.memo.hits" and
// "sim.memo.misses". A nil registry is a no-op.
func PublishRuntimeMetrics(r *MetricsRegistry) {
	hits, misses := parallel.MemoStats()
	r.Counter("sim.memo.hits").Set(uint64(hits))
	r.Counter("sim.memo.misses").Set(uint64(misses))
}

// Model layer (the paper's contribution).
type (
	// CAMAT holds the five C-AMAT parameters of Eq. (2).
	CAMAT = core.CAMAT
	// Measurement carries one interval's LPM model inputs.
	Measurement = core.Measurement
	// Target is what the LPM algorithm optimizes.
	Target = core.Target
	// AlgorithmConfig parameterises the Fig. 3 algorithm.
	AlgorithmConfig = core.AlgorithmConfig
	// Result is an algorithm run's trace and outcome.
	Result = core.Result
	// Grain selects the 1% (fine) or 10% (coarse) stall target.
	Grain = core.Grain
)

// Grain values.
const (
	FineGrain   = core.FineGrain
	CoarseGrain = core.CoarseGrain
)

// Multi-level and sensitivity extensions.
type (
	// Chain generalises the LPM model to arbitrary hierarchy depth.
	Chain = core.Chain
	// Layer is one level of a Chain.
	Layer = core.Layer
	// Sensitivity is the gradient of C-AMAT over its five parameters.
	Sensitivity = core.Sensitivity
)

// AMAT evaluates the conventional Eq. (1).
func AMAT(h, mr, amp float64) float64 { return core.AMAT(h, mr, amp) }

// Sensitivities evaluates the C-AMAT gradient at the given parameters.
func Sensitivities(c CAMAT) Sensitivity { return core.Sensitivities(c) }

// BestLever names the C-AMAT parameter whose 1% improvement buys the
// largest reduction — the model's "which knob next?" answer.
func BestLever(c CAMAT) string { return core.BestLever(c) }

// RunAlgorithm executes the LPMR-reduction algorithm of Fig. 3.
func RunAlgorithm(t Target, cfg AlgorithmConfig) Result { return core.Run(t, cfg) }

// Measurement apparatus.
type (
	// Analyzer is the per-layer C-AMAT detecting system of Fig. 4.
	Analyzer = analyzer.Analyzer
	// LayerParams is a layer's counter snapshot with derived C-AMAT
	// parameters.
	LayerParams = analyzer.Params
)

// NewAnalyzer returns an analyzer for the named layer.
func NewAnalyzer(name string) *Analyzer { return analyzer.New(name) }

// Simulator substrate.
type (
	// Chip is the assembled multicore system.
	Chip = chip.Chip
	// ChipConfig describes a chip.
	ChipConfig = chip.Config
	// CoreSlot pairs a core with its L1 and workload.
	CoreSlot = chip.CoreSlot
	// CPUConfig describes an out-of-order core.
	CPUConfig = cpu.Config
	// CacheConfig describes one cache.
	CacheConfig = cache.Config
	// DRAMConfig describes main memory.
	DRAMConfig = dram.Config
	// ChipReport is a full-chip measurement snapshot.
	ChipReport = chip.Report
)

// The Chip.WarmUp units.
const (
	WarmInstructions = chip.WarmInstructions
	WarmCycles       = chip.WarmCycles
)

// NewChip builds a chip from cfg; it panics on invalid configuration.
func NewChip(cfg ChipConfig) *Chip { return chip.New(cfg) }

// SingleCore builds a one-core chip for the named built-in workload.
func SingleCore(profile string) ChipConfig { return chip.SingleCore(profile) }

// NUCA16 builds the paper's Fig. 5 heterogeneous 16-core chip.
func NUCA16(workloads []Workload) ChipConfig { return chip.NUCA16(workloads) }

// MeasureCPIexe calibrates CPI_exe (Eq. 5) with a perfect-cache run.
func MeasureCPIexe(cfg CPUConfig, gen Workload, hitLatency, n uint64) float64 {
	return chip.MeasureCPIexe(cfg, gen, hitLatency, n)
}

// Workloads.
type (
	// Workload produces an instruction stream.
	Workload = trace.Generator
	// WorkloadProfile parameterises a synthetic workload.
	WorkloadProfile = trace.Profile
)

// Workloads returns the built-in SPEC CPU2006-like profile names.
func Workloads() []string { return trace.ProfileNames() }

// NewWorkload builds the named built-in synthetic workload.
func NewWorkload(name string) (Workload, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return trace.NewSynthetic(p), nil
}

// Case studies.
type (
	// DesignPoint is one hardware configuration of case study I.
	DesignPoint = explore.Point
	// DesignSpace is the six-parameter menu of case study I.
	DesignSpace = explore.Space
	// HardwareTarget adapts the design space to the LPM algorithm.
	HardwareTarget = explore.HardwareTarget
	// Scheduler assigns workloads to NUCA cores (case study II).
	Scheduler = sched.Scheduler
	// SchedEvaluation is one scheduled run's Hsp outcome.
	SchedEvaluation = sched.Evaluation
	// BurstProfile is the interval study's burst population.
	BurstProfile = interval.Profile
)
