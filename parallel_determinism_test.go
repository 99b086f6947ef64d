package lpm

import (
	"context"
	"reflect"
	"testing"

	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// The parallel runner must be invisible in the results: every simulation
// builds its own generator and chip, so fanning the batch out over
// workers has to produce bit-identical Measurements. Any divergence
// means a job reached shared mutable state.

func TestParallelTable1MatchesSerialExactly(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	ResetSimCaches()
	SetWorkers(1)
	serial := mustTable1(t, QuickScale(), false)

	ResetSimCaches() // force real re-simulation, not memo hits
	SetWorkers(4)
	parallel := mustTable1(t, QuickScale(), false)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Table1 diverged from serial baseline:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}

	// A repeat run without resetting must serve from the memo and still
	// be bit-identical.
	memoised := mustTable1(t, QuickScale(), false)
	if !reflect.DeepEqual(parallel, memoised) {
		t.Fatal("memoised Table1 diverged from the run that filled the cache")
	}
}

// Observability must not perturb determinism: snapshots are taken from
// per-simulation registries, so observed runs fanned over workers have
// to match the serial baseline metric for metric — and must never
// collide with unobserved runs in the memo.
func TestParallelObservedTable1SnapshotsMatchSerial(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	// A reduced budget: snapshot determinism does not depend on scale.
	s := Scale{Warmup: 30000, Window: 8000}

	ResetSimCaches()
	SetWorkers(1)
	serial := mustTable1(t, s, true)

	ResetSimCaches()
	SetWorkers(4)
	parallel := mustTable1(t, s, true)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel observed Table1 diverged from serial baseline:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}

	for _, r := range serial {
		if r.M.Obs == nil {
			t.Fatalf("row %s: observed run carries no snapshot", r.Name)
		}
		for _, name := range []string{
			"cpu.0.instructions", "cpu.0.cycles", "l1.0.accesses",
			"l1.0.misses", "l2.accesses", "dram.reads",
		} {
			if _, ok := r.M.Obs.Metric(name); !ok {
				t.Fatalf("row %s: snapshot lacks %q", r.Name, name)
			}
		}
		if r.M.Obs.Counter("l1.0.accesses") == 0 {
			t.Fatalf("row %s: snapshot recorded zero L1 accesses", r.Name)
		}
	}

	// An unobserved run at the same scale must not be served the observed
	// result: the Observe flag is part of the memo key.
	plain := mustTable1(t, s, false)
	for _, r := range plain {
		if r.M.Obs != nil {
			t.Fatalf("row %s: unobserved run returned a snapshot (memo key collision)", r.Name)
		}
	}
}

// Timelines are part of the measurement, so they obey the same law:
// fanning the sampled runs over workers must reproduce the serial
// timelines window for window — and the Timeline flag must never let a
// sampled run and a plain run share a memo slot.
func TestParallelTimelinesMatchSerialExactly(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	// A reduced budget: timeline determinism does not depend on scale.
	s := Scale{Warmup: 30000, Window: 8000}

	ResetSimCaches()
	SetWorkers(1)
	serial := mustTimeline(t, s)

	ResetSimCaches()
	SetWorkers(4)
	parallel := mustTimeline(t, s)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel timelines diverged from serial baseline:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	for _, r := range serial {
		if r.M.Timeline == nil || len(r.M.Timeline.Windows) == 0 {
			t.Fatalf("row %s: sampled run carries no timeline", r.Name)
		}
	}

	// A plain run at the same scale must not be served the sampled
	// result: the Timeline flag is part of the memo key.
	for _, r := range mustTable1(t, s, false) {
		if r.M.Timeline != nil {
			t.Fatalf("row %s: plain run returned a timeline (memo key collision)", r.Name)
		}
	}
}

func TestParallelAloneIPCsMatchesSerialExactly(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	names := trace.ProfileNames()
	sizes := chip.NUCAGroupSizes[:]
	opt := sched.EvalOptions{WindowCycles: 20000, WarmupCycles: 10000}

	ResetSimCaches()
	SetWorkers(1)
	serial, err := sched.AloneIPCs(context.Background(), names, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}

	ResetSimCaches()
	SetWorkers(4)
	parallel, err := sched.AloneIPCs(context.Background(), names, sizes, opt)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel AloneIPCs diverged from serial baseline:\nserial:   %v\nparallel: %v",
			serial, parallel)
	}
}
