package sched

// Portable specs for the two memoised profiling simulations, mirroring
// explore.SimSpec: each carries every input its run depends on in
// exported JSON-safe fields, and each Run* function is a pure function
// of the spec, shared verbatim between the in-process memo path and the
// sweep fabric's granule executors.

import (
	"context"
	"fmt"

	"lpm/internal/fabric"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// ProfileKind is the fabric granule kind for standalone workload
// profiling runs (Fig. 6/7 and the NUCA-SA scheduler's table).
const ProfileKind = "sched.profile"

// AloneKind is the fabric granule kind for standalone-IPC reference
// runs (the Hsp denominator).
const AloneKind = "sched.alone"

// ProfileSpec describes one profiling run: one workload alone at one
// L1 size under normalised options.
type ProfileSpec struct {
	Profile trace.Profile
	L1Size  uint64
	Opt     ProfileOptions
}

// MemoKey derives the content key; the part order must stay exactly
// what the pre-fabric profileOne passed to parallel.KeyOf so existing
// checkpoints keep resuming warm.
func (s ProfileSpec) MemoKey() string {
	return parallel.KeyOf("sched.profileOne", s.Profile, s.L1Size, s.Opt)
}

// RunProfileSpec measures (APC1, APC2, IPC) for the spec's workload.
func RunProfileSpec(ctx context.Context, s ProfileSpec) ([3]float64, error) {
	opt := s.Opt.normalise()
	cfg := chip.NUCASingle(trace.NewSynthetic(s.Profile), s.L1Size)
	ch := chip.New(cfg)
	ch.SetContext(ctx)
	err := ch.WarmUp(opt.Warmup, chip.WarmInstructions, opt.WarmupFast, opt.MaxCycles)
	if err == nil {
		ch.ResetCounters()
		ch.Run(opt.Instructions, opt.MaxCycles)
		err = ch.Err()
	}
	if err != nil {
		return [3]float64{}, fmt.Errorf("profile %s @%d: %w", s.Profile.Name, s.L1Size, err)
	}
	r := ch.Snapshot()
	return [3]float64{r.Cores[0].L1.APC(), r.L2.APC(), r.Cores[0].CPU.IPC()}, nil
}

// AloneSpec describes one standalone-IPC reference run: one workload on
// a reference core with the largest NUCA group's L1, under the shared
// runs' fixed-cycle warmup/window protocol.
type AloneSpec struct {
	Profile      trace.Profile
	RefL1        uint64
	WindowCycles uint64
	WarmupCycles uint64
	WarmupFast   bool
}

// MemoKey derives the content key with the pre-fabric part order.
func (s AloneSpec) MemoKey() string {
	return parallel.KeyOf("sched.alone", s.Profile, s.RefL1,
		s.WindowCycles, s.WarmupCycles, s.WarmupFast)
}

// RunAloneSpec measures the spec's standalone IPC.
func RunAloneSpec(ctx context.Context, s AloneSpec) (float64, error) {
	ch := chip.New(chip.NUCASingle(trace.NewSynthetic(s.Profile), s.RefL1))
	ch.SetContext(ctx)
	if err := runWindow(ch, s.WarmupCycles, s.WindowCycles, s.WarmupFast); err != nil {
		return 0, fmt.Errorf("alone-IPC %s: %w", s.Profile.Name, err)
	}
	return ch.Snapshot().Cores[0].CPU.IPC(), nil
}

// runWindow is the shared runs' fixed-cycle protocol, used identically
// by the 16-core evaluation and the standalone-IPC reference so the
// weighted speedups compare like with like: warm up, zero the counters,
// run exactly window cycles.
func runWindow(ch *chip.Chip, warmup, window uint64, fast bool) error {
	if err := ch.WarmUp(warmup, chip.WarmCycles, fast, 0); err != nil {
		return err
	}
	ch.ResetCounters()
	ch.RunCycles(window)
	return ch.Err()
}

// The two kinds, declared once each: named memo (shared across Fig. 6,
// Fig. 7, Fig. 8, lpmsched and the benchmarks, persisted through
// ExportMemos), lpmworker executor, and the dispatch between them.
var (
	profileKind = fabric.NewKind(ProfileKind, RunProfileSpec)
	aloneKind   = fabric.NewKind(AloneKind, RunAloneSpec)
)
