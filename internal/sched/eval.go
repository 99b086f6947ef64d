package sched

import (
	"context"
	"fmt"

	"lpm/internal/sim/chip"
	"lpm/internal/stats"
	"lpm/internal/trace"
)

// EvalOptions control an Hsp evaluation run. The shared run uses a fixed
// cycle window with every program live throughout (constant contention),
// the standard multiprogram methodology; per-program IPC is measured over
// the window.
type EvalOptions struct {
	// WindowCycles is the measured window length; 0 means 120000.
	WindowCycles uint64
	// WarmupCycles are discarded before the window; 0 means
	// WindowCycles/2.
	WarmupCycles uint64
	// WarmupFast runs the warm-up as functional-tier rounds (see
	// chip.WarmUp). Joins the standalone-IPC memo key.
	WarmupFast bool
	// AloneIPC, when non-nil, supplies precomputed standalone IPCs
	// (indexed like workloads); otherwise they are measured on a
	// reference core with the largest group's L1.
	AloneIPC []float64
}

func (o EvalOptions) normalise() EvalOptions {
	if o.WindowCycles == 0 {
		o.WindowCycles = 120000
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = o.WindowCycles / 2
	}
	return o
}

// Evaluation is the outcome of one scheduled run.
type Evaluation struct {
	// Scheduler is the policy name.
	Scheduler string
	// Assignment is the placement evaluated.
	Assignment Assignment
	// IPCShared[w] is workload w's IPC in the shared run.
	IPCShared []float64
	// IPCAlone[w] is the standalone reference IPC.
	IPCAlone []float64
	// Hsp is the harmonic weighted speedup (Fig. 8's metric).
	Hsp float64
	// Cycles is the length of the measured window.
	Cycles uint64
}

// AloneIPCs measures each workload's standalone IPC on a reference core
// whose L1 is the largest NUCA size, using exactly the same fixed-cycle
// warmup/window protocol as the shared runs so the weighted speedups
// compare like with like. The result is the denominator of the weighted
// speedups; it is scheduling-invariant. The per-workload runs are
// independent simulations, so they go out as one batch (the parallel
// runner, or the whole fleet when sharded) and are memoised on the
// (profile, reference size, window) fingerprint.
func AloneIPCs(ctx context.Context, workloads []string, groupSizes []uint64, opt EvalOptions) ([]float64, error) {
	opt = opt.normalise()
	ref := groupSizes[len(groupSizes)-1]
	specs := make([]AloneSpec, len(workloads))
	for i, name := range workloads {
		prof, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = AloneSpec{
			Profile:      prof,
			RefL1:        ref,
			WindowCycles: opt.WindowCycles,
			WarmupCycles: opt.WarmupCycles,
			WarmupFast:   opt.WarmupFast,
		}
	}
	return aloneKind.DoAll(ctx, specs)
}

// Evaluate runs the workloads under the given assignment on the Fig. 5
// NUCA chip and returns the Hsp evaluation: RunShared, then Score
// against opt.AloneIPC or, when that is nil, freshly measured AloneIPCs.
func Evaluate(ctx context.Context, s Scheduler, workloads []string, groupSizes []uint64, opt EvalOptions) (*Evaluation, error) {
	ev, err := RunShared(ctx, s, workloads, groupSizes, opt)
	if err != nil {
		return nil, err
	}
	alone := opt.AloneIPC
	if alone == nil {
		alone, err = AloneIPCs(ctx, workloads, groupSizes, opt)
		if err != nil {
			return nil, err
		}
	}
	ev.Score(alone)
	return ev, nil
}

// RunShared is Evaluate's 16-core shared run alone: the evaluation it
// returns has the assignment and the shared IPCs, but no IPCAlone and
// no Hsp until Score. It does not read opt.AloneIPC, so it can run
// while the standalone IPCs are still being measured.
func RunShared(ctx context.Context, s Scheduler, workloads []string, groupSizes []uint64, opt EvalOptions) (*Evaluation, error) {
	opt = opt.normalise()
	asg, err := s.Assign(workloads, groupSizes)
	if err != nil {
		return nil, err
	}
	if err := asg.Validate(len(workloads)); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}

	gens := make([]trace.Generator, len(asg))
	for core, w := range asg {
		if w == -1 {
			continue
		}
		prof, err := trace.ProfileByName(workloads[w])
		if err != nil {
			return nil, err
		}
		gens[core] = trace.NewSynthetic(prof)
	}
	cfg := nucaConfig(gens, groupSizes)
	ch := chip.New(cfg)
	ch.SetContext(ctx)
	if err := runWindow(ch, opt.WarmupCycles, opt.WindowCycles, opt.WarmupFast); err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", s.Name(), err)
	}
	r := ch.Snapshot()

	ipcShared := make([]float64, len(workloads))
	for core, w := range asg {
		if w == -1 {
			continue
		}
		ipcShared[w] = r.Cores[core].CPU.IPC()
	}
	return &Evaluation{
		Scheduler:  s.Name(),
		Assignment: asg,
		IPCShared:  ipcShared,
		Cycles:     opt.WindowCycles,
	}, nil
}

// Score completes a shared run with the standalone IPCs (indexed like
// the workloads): it sets IPCAlone and the Hsp.
func (e *Evaluation) Score(alone []float64) {
	e.IPCAlone = alone
	e.Hsp = stats.Hsp(e.IPCShared, alone)
}

// nucaConfig builds a NUCA chip for arbitrary group sizes (the standard
// Fig. 5 geometry when groupSizes == chip.NUCAGroupSizes[:]).
func nucaConfig(gens []trace.Generator, groupSizes []uint64) chip.Config {
	if len(groupSizes) == len(chip.NUCAGroupSizes) {
		std := true
		for i, s := range groupSizes {
			if s != chip.NUCAGroupSizes[i] {
				std = false
				break
			}
		}
		if std {
			return chip.NUCA16(gens)
		}
	}
	cfg := chip.NUCA16(gens)
	for i := range cfg.Cores {
		g := i / chip.NUCAGroupCores
		if g < len(groupSizes) {
			cfg.Cores[i].L1 = chip.DefaultL1(fmt.Sprintf("L1D-%d", i), groupSizes[g])
		}
	}
	return cfg
}
