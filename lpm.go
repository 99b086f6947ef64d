// Package lpm is a from-scratch Go reproduction of "LPM:
// Concurrency-driven Layered Performance Matching" (Yu-Hang Liu and
// Xian-He Sun, ICPP 2015).
//
// The package exports what the commands, the benchmark and the example
// use:
//
//   - the LPM model relating layered performance mismatch to data stall
//     time (Eq. 5-15) — see Measurement and its LPMR/Stall/Threshold
//     methods;
//   - the cycle-level CMP simulator substrate (out-of-order cores,
//     non-blocking multi-banked caches with MSHRs, DRAM timing) — see
//     Chip, NewChip, SingleCore and MeasureCPIexe;
//   - synthetic SPEC CPU2006-like workloads — see NewWorkload;
//   - the single-run pipeline behind lpmrun and lpmserve — see RunSingle;
//   - the paper's two case studies and every table/figure-regeneration
//     harness, and the lpm-report/v2 document they fill — see
//     experiments.go and report.go.
//
// The model, the analyzer and the simulator live in internal packages;
// tests and tools that need more of them import those directly.
// Everything is implemented with the Go standard library only. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package lpm

import (
	"lpm/internal/analyzer"
	"lpm/internal/core"
	"lpm/internal/explore"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/cpu"
	"lpm/internal/trace"
)

// Parallel simulation runner. Every experiment driver fans its
// independent simulations out over a shared worker pool and memoises
// results content-keyed on the full simulation input; see
// EXPERIMENTS.md ("Parallel execution").

// SetWorkers bounds the simulation fan-out concurrency; n <= 0 restores
// the default, runtime.GOMAXPROCS(0). The CLIs expose it as -workers.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// ResetSimCaches drops every memoised simulation result (and zeroes the
// memo hit/miss counters), forcing the next evaluations to re-simulate.
// Benchmarks and determinism tests use it; ordinary callers never need
// to.
func ResetSimCaches() { parallel.ResetAllMemos() }

// SimCacheStats returns the cumulative hit and miss counts of the
// process-wide simulation memo pool.
func SimCacheStats() (hits, misses int64) { return parallel.MemoStats() }

// Model layer (the paper's contribution).
type (
	// Measurement carries one interval's LPM model inputs.
	Measurement = core.Measurement
	// Result is an algorithm run's trace and outcome.
	Result = core.Result
	// Grain selects the 1% (fine) or 10% (coarse) stall target.
	Grain = core.Grain
	// LayerParams is a layer's counter snapshot with derived C-AMAT
	// parameters.
	LayerParams = analyzer.Params
)

// Grain values.
const (
	FineGrain   = core.FineGrain
	CoarseGrain = core.CoarseGrain
)

// Simulator substrate.
type (
	// Chip is the assembled multicore system.
	Chip = chip.Chip
	// ChipConfig describes a chip.
	ChipConfig = chip.Config
	// CPUConfig describes an out-of-order core.
	CPUConfig = cpu.Config
)

// WarmInstructions is the Chip.WarmUp unit of retired instructions per
// active core.
const WarmInstructions = chip.WarmInstructions

// NewChip builds a chip from cfg; it panics on invalid configuration.
func NewChip(cfg ChipConfig) *Chip { return chip.New(cfg) }

// SingleCore builds a one-core chip for the named built-in workload.
func SingleCore(profile string) ChipConfig { return chip.SingleCore(profile) }

// MeasureCPIexe calibrates CPI_exe (Eq. 5) with a perfect-cache run.
func MeasureCPIexe(cfg CPUConfig, gen Workload, hitLatency, n uint64) float64 {
	return chip.MeasureCPIexe(cfg, gen, hitLatency, n)
}

// Workload produces an instruction stream.
type Workload = trace.Generator

// NewWorkload builds the named built-in synthetic workload.
func NewWorkload(name string) (Workload, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return trace.NewSynthetic(p), nil
}

// Case study I.
type (
	// DesignPoint is one hardware configuration of case study I.
	DesignPoint = explore.Point
	// HardwareTarget adapts the design space to the LPM algorithm.
	HardwareTarget = explore.HardwareTarget
)
