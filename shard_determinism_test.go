package lpm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"lpm/internal/fabric"
	"lpm/internal/obs"
	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// Sharding must be invisible in the results: a run fanned out over
// worker processes has to produce byte-identical documents to the serial
// run, at any worker count, through any amount of mid-run churn. The
// comparisons here marshal both sides to JSON first — sharded results
// crossed the wire as JSON, so the document bytes (not in-memory
// nil-vs-empty shapes) are the contract.

// shardScale is a reduced budget for the worker-count sweep: determinism
// does not depend on the scale, and the sweep recomputes everything from
// cold caches at each count.
var shardScale = Scale{Warmup: 20000, Window: 6000}

// buildShardDoc builds the lpm-report/v2 document the sweep compares:
// every Table I configuration plus the Fig. 6/7 profile of all built-in
// workloads at the four NUCA L1 sizes.
func buildShardDoc(t *testing.T) []byte {
	t.Helper()
	rep, err := BuildReportCtx(bg, ReportOptions{
		Scale:       shardScale,
		Experiments: []string{"table1", "fig67"},
	})
	if err != nil {
		t.Fatalf("building report: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return data
}

// startFabric brings up an in-process coordinator with n workers and
// routes this process's simulations through it.
func startFabric(t *testing.T, n int) *fabric.LocalFabric {
	t.Helper()
	lf, err := fabric.StartLocal(t.Context(), n, fabric.Options{StraggleAfter: -1}, fabric.WorkerOptions{Slots: 2})
	if err != nil {
		t.Fatalf("starting %d-worker fabric: %v", n, err)
	}
	return lf
}

// closeFabric tears the fabric down and asserts it actually carried the
// run: a silently-bypassed fabric would make every comparison vacuous.
func closeFabric(t *testing.T, lf *fabric.LocalFabric) {
	t.Helper()
	st := lf.C.Stats()
	if err := lf.Close(); err != nil {
		t.Fatalf("closing fabric: %v", err)
	}
	if st.Completed == 0 {
		t.Fatalf("stats=%+v: no granule went through the fabric", st)
	}
}

func TestShardedReportMatchesSerialAtEveryWorkerCount(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	ResetSimCaches()
	SetWorkers(4)
	serial := buildShardDoc(t)

	for _, n := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			ResetSimCaches() // force real re-simulation through the fabric
			lf := startFabric(t, n)
			defer closeFabric(t, lf)
			sharded := buildShardDoc(t)
			if !bytes.Equal(serial, sharded) {
				t.Fatalf("%d-worker sharded report diverged from serial baseline near line %d",
					n, firstDiffLine(sharded, serial))
			}
		})
	}
	// Unequal supply rates: the dispatch pick orders workers by
	// held/slots, so budgets of 2, 3 and 5 fill at different speeds.
	t.Run("slots=1,2,4", func(t *testing.T) {
		ResetSimCaches()
		lf, executed := startFabricWithSlots(t, 1, 2, 4)
		sharded := buildShardDoc(t)
		closeFabric(t, lf)
		if !bytes.Equal(serial, sharded) {
			t.Fatalf("heterogeneous-slot sharded report diverged from serial baseline near line %d",
				firstDiffLine(sharded, serial))
		}
		if n := executed(); n[0] == 0 || n[1] == 0 || n[2] == 0 {
			t.Fatalf("granules executed per worker = %v: a worker sat idle through the whole run", n)
		}
	})
}

// startFabricWithSlots brings up an in-process coordinator with one
// worker per slot count. The returned func reports how many granules
// each worker executed; call it after closeFabric (worker telemetry is
// read once the workers have exited).
func startFabricWithSlots(t *testing.T, slots ...int) (*fabric.LocalFabric, func() []uint64) {
	t.Helper()
	lf := startFabric(t, 0)
	regs := make([]*obs.Registry, len(slots))
	for i, n := range slots {
		regs[i] = obs.NewRegistry()
		lf.AddWorker(fabric.WorkerOptions{Slots: n, Obs: fabric.NewWorkerTelemetry(regs[i])})
	}
	if err := lf.C.WaitWorkers(bg, len(slots)); err != nil {
		t.Fatal(err)
	}
	return lf, func() []uint64 {
		executed := make([]uint64, len(regs))
		for i, reg := range regs {
			executed[i] = reg.Snapshot().Counter("worker.granules_executed")
		}
		return executed
	}
}

// TestShardedFig8UsesEveryWorker runs the sweep_real shape — Fig. 8's
// 80 granules (the profile table and the alone IPCs, at Fig8Ctx's pinned
// windows; its five 16-core evaluations are not granules) over two
// 1-slot workers — and checks what the join-order fill got wrong: with
// both batches outstanding at the coordinator, both workers execute (one
// ran all 80 before), nothing is duplicated to get there, and the values
// are the serial ones.
func TestShardedFig8UsesEveryWorker(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()
	names, sizes := trace.ProfileNames(), chip.NUCAGroupSizes[:]
	run := func() []byte {
		tbl, err := sched.BuildProfileTable(bg, names, sizes, sched.ProfileOptions{Instructions: 10000, Warmup: 25000})
		if err != nil {
			t.Fatal(err)
		}
		alone, err := sched.AloneIPCs(bg, names, sizes, sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(struct {
			Table *sched.ProfileTable
			Alone []float64
		}{tbl, alone})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ResetSimCaches()
	SetWorkers(2)
	serial := run()

	ResetSimCaches()
	lf, executed := startFabricWithSlots(t, 1, 1)
	sharded := run()
	st := lf.C.Stats()
	closeFabric(t, lf)
	if !bytes.Equal(serial, sharded) {
		t.Fatalf("sharded Fig. 8 granules diverged from serial:\nserial:  %s\nsharded: %s", serial, sharded)
	}
	if want := len(names) * (len(sizes) + 1); st.Submitted != want {
		t.Fatalf("submitted=%d granules, want %d", st.Submitted, want)
	}
	if n := executed(); n[0] == 0 || n[1] == 0 || n[0]+n[1] != uint64(st.Submitted) {
		t.Fatalf("granules executed per worker = %v of %d submitted, want both working and each granule run once", n, st.Submitted)
	}
	if st.Duplicated != 0 || st.Requeued != 0 {
		t.Fatalf("stats=%+v, want no duplicated or re-queued granule", st)
	}
}

// TestShardedReportSurvivesWorkerJoinLeave churns the fleet while the
// report builds — a worker joins mid-run, then a founding worker leaves
// (from the coordinator's side, a crash). The document must still come
// out byte-identical: departures only re-queue pure work.
func TestShardedReportSurvivesWorkerJoinLeave(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	ResetSimCaches()
	SetWorkers(4)
	serial := buildShardDoc(t)

	ResetSimCaches()
	lf := startFabric(t, 2)
	defer closeFabric(t, lf)

	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		time.Sleep(20 * time.Millisecond)
		lf.AddWorker(fabric.WorkerOptions{Slots: 2})
		time.Sleep(20 * time.Millisecond)
		// The founding workers are named local-1 and local-2.
		if err := lf.StopWorker("local-1"); err != nil {
			t.Errorf("stopping worker: %v", err)
		}
	}()
	sharded := buildShardDoc(t)
	churn.Wait()

	if !bytes.Equal(serial, sharded) {
		t.Fatalf("sharded report with worker churn diverged from serial baseline near line %d",
			firstDiffLine(sharded, serial))
	}
}

// TestShardedAloneIPCsMatchSerialExactly covers the NUCA multicore
// alone-run kind: the per-workload solo IPCs that normalise every
// scheduler evaluation must shard without drifting a bit.
func TestShardedAloneIPCsMatchSerialExactly(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	names := trace.ProfileNames()
	sizes := chip.NUCAGroupSizes[:]
	opt := sched.EvalOptions{WindowCycles: 20000, WarmupCycles: 10000}

	run := func(t *testing.T) []byte {
		t.Helper()
		alone, err := sched.AloneIPCs(context.Background(), names, sizes, opt)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(alone)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ResetSimCaches()
	SetWorkers(1)
	serial := run(t)

	ResetSimCaches()
	lf := startFabric(t, 3)
	defer closeFabric(t, lf)
	sharded := run(t)

	if !bytes.Equal(serial, sharded) {
		t.Fatalf("sharded alone-IPCs diverged from serial baseline:\nserial:  %s\nsharded: %s",
			serial, sharded)
	}
}

// TestShardedTable1MatchesGolden is the acceptance gate: a sharded
// QuickScale Table I run must reproduce the pinned golden file
// byte-for-byte — the same bytes the serial golden test pins.
func TestShardedTable1MatchesGolden(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()

	ResetSimCaches()
	lf := startFabric(t, 2)
	defer closeFabric(t, lf)
	goldenJSON(t, "table1_quick.json", mustTable1(t, QuickScale(), false))
}
