// Package sched implements the paper's case study II: scheduling a
// multiprogrammed workload onto the heterogeneous-L1 (NUCA) 16-core CMP
// of Fig. 5. It provides the two baseline policies used in practice
// (Random and Round-Robin), the paper's LPM-guided NUCA-aware scheduling
// algorithm (NUCA-SA) in fine- and coarse-grained variants, and the
// harmonic weighted speedup (Hsp) evaluation of Fig. 8.
package sched

import (
	"context"
	"fmt"

	"lpm/internal/trace"
)

// ProfileTable records each workload's standalone memory behaviour on
// every available private-L1 size: the APC_1 (L1 supply rate, Fig. 6) and
// APC_2 (L2 demand, Fig. 7) observed when the workload runs alone. The
// NUCA-SA scheduler consumes it; the Fig. 6/7 reproductions print it.
type ProfileTable struct {
	// Sizes are the L1 capacities profiled, ascending.
	Sizes []uint64
	// Workloads are the profile names, in input order.
	Workloads []string
	// APC1[w][s] is workload w's L1 accesses per memory-active cycle at
	// size index s.
	APC1 map[string][]float64
	// APC2[w][s] is the matching L2 demand rate.
	APC2 map[string][]float64
	// IPC[w][s] is the standalone IPC, used for Hsp normalisation.
	IPC map[string][]float64
}

// ProfileOptions control profiling runs.
type ProfileOptions struct {
	// Instructions per run; 0 means 20000.
	Instructions uint64
	// Warmup instructions discarded before measuring; 0 means
	// 3*Instructions.
	Warmup uint64
	// MaxCycles bounds each run; 0 means (Warmup+Instructions)*600.
	MaxCycles uint64
	// WarmupFast runs the warm-up in the functional tier (see
	// chip.WarmUp); it is part of the memo key via the options
	// fingerprint.
	WarmupFast bool
}

func (o ProfileOptions) normalise() ProfileOptions {
	if o.Instructions == 0 {
		o.Instructions = 20000
	}
	if o.Warmup == 0 {
		o.Warmup = 3 * o.Instructions
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = (o.Warmup + o.Instructions) * 600
	}
	return o
}

// BuildProfileTable measures every workload alone on a single-core chip
// at every L1 size in sizes. This is the paper's per-application
// profiling pass (its Fig. 6 and Fig. 7 data). The len(names)*len(sizes)
// runs are independent, so they go out as one batch — over the parallel
// runner, or over the whole fleet when sharded; each run builds its own
// generator and chip, and results land back in input order.
func BuildProfileTable(ctx context.Context, names []string, sizes []uint64, opt ProfileOptions) (*ProfileTable, error) {
	opt = opt.normalise()
	t := &ProfileTable{
		Sizes:     append([]uint64(nil), sizes...),
		Workloads: append([]string(nil), names...),
		APC1:      make(map[string][]float64, len(names)),
		APC2:      make(map[string][]float64, len(names)),
		IPC:       make(map[string][]float64, len(names)),
	}
	specs := make([]ProfileSpec, 0, len(names)*len(sizes))
	for _, name := range names {
		prof, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, size := range sizes {
			specs = append(specs, ProfileSpec{Profile: prof, L1Size: size, Opt: opt})
		}
	}
	results, err := profileKind.DoAll(ctx, specs)
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		a1 := make([]float64, len(sizes))
		a2 := make([]float64, len(sizes))
		ipc := make([]float64, len(sizes))
		for si := range sizes {
			r := results[ni*len(sizes)+si]
			a1[si], a2[si], ipc[si] = r[0], r[1], r[2]
		}
		t.APC1[name] = a1
		t.APC2[name] = a2
		t.IPC[name] = ipc
	}
	return t, nil
}

// sizeIndex locates size in t.Sizes.
func (t *ProfileTable) sizeIndex(size uint64) (int, error) {
	for i, s := range t.Sizes {
		if s == size {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sched: size %d not profiled", size)
}

// RequiredSize returns the smallest profiled L1 size whose APC1 is within
// tolFrac of the workload's best APC1 — the paper's "optimal memory
// performance with minimum amount of resource".
func (t *ProfileTable) RequiredSize(name string, tolFrac float64) (uint64, error) {
	a1, ok := t.APC1[name]
	if !ok {
		return 0, fmt.Errorf("sched: workload %q not profiled", name)
	}
	best := 0.0
	for _, v := range a1 {
		if v > best {
			best = v
		}
	}
	for i, v := range a1 {
		if v >= best*(1-tolFrac) {
			return t.Sizes[i], nil
		}
	}
	return t.Sizes[len(t.Sizes)-1], nil
}
