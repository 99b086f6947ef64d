package explore

// Chaos tests for the hardened evaluation path: a watchdog trip on one
// workload must surface as that workload's structured error while its
// siblings finish, and a cancellation mid-walk must drain cleanly
// without poisoning the memo a resumed run draws from.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpm/internal/core"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
	"lpm/internal/trace"
)

// newChaosTarget builds a small-budget target at Table I's point A. The
// budgets are distinct from the other tests' so a deliberately poisoned
// memo entry (a memoised livelock) can never leak across tests even
// without the Cleanup reset.
func newChaosTarget(t *testing.T, workload string) *HardwareTarget {
	t.Helper()
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewHardwareTarget(DefaultSpace(), TableConfigs()["A"], prof)
	tgt.Warmup = 21000
	tgt.Instructions = 5000
	return tgt
}

func TestChaosWatchdogLivelockIsolation(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()

	// A 1-cycle no-progress budget is an impossible bar: the first
	// stalled cycle already counts as a livelock, so the watchdog trips
	// deterministically on the victim. The sibling runs untouched.
	workloads := []string{"410.bwaves", "429.mcf"}
	budgets := map[string]uint64{"410.bwaves": 1}
	res := parallel.MapResults(context.Background(), workloads,
		func(ctx context.Context, name string) (core.Measurement, error) {
			tgt := newChaosTarget(t, name)
			tgt.WatchdogCycles = budgets[name]
			return tgt.Measure(ctx)
		})

	victim, healthy := res[0], res[1]
	if healthy.Err != nil || !healthy.Ran {
		t.Fatalf("healthy workload failed alongside the livelocked one: ran=%v err=%v",
			healthy.Ran, healthy.Err)
	}
	if healthy.Val.CPIexe <= 0 {
		t.Fatalf("healthy workload's measurement is empty: %+v", healthy.Val)
	}
	if victim.Err == nil {
		t.Fatal("1-cycle watchdog budget did not trip")
	}
	var ll *resilience.LivelockError
	if !errors.As(victim.Err, &ll) {
		t.Fatalf("victim error %v does not carry a *resilience.LivelockError", victim.Err)
	}
	if ll.Budget != 1 || ll.Cycle == 0 {
		t.Fatalf("livelock bundle budget=%d cycle=%d, want budget 1 at a nonzero cycle",
			ll.Budget, ll.Cycle)
	}
	if len(ll.Occupancy) == 0 || len(ll.Retired) == 0 {
		t.Fatalf("livelock diagnostic bundle is empty: %+v", ll)
	}

	// A livelock is deterministic, so it is memoised: re-measuring the
	// same point fails from the cache with the same structured error.
	tgt := newChaosTarget(t, "410.bwaves")
	tgt.WatchdogCycles = 1
	_, err := tgt.Measure(context.Background())
	var ll2 *resilience.LivelockError
	if !errors.As(err, &ll2) || ll2.Cycle != ll.Cycle {
		t.Fatalf("memoised livelock replay = %v, want the original trip at cycle %d", err, ll.Cycle)
	}
}

func TestChaosCancelMidWalkDrainsAndReruns(t *testing.T) {
	t.Cleanup(parallel.ResetAllMemos)
	parallel.ResetAllMemos()
	cfg := core.AlgorithmConfig{Grain: core.FineGrain, SlackFrac: 0.5, MaxSteps: 3}

	// Uninterrupted baseline.
	base := newChaosTarget(t, "410.bwaves")
	baseRes, basePt, err := base.RunAlgorithmCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Cancel from inside the second evaluation's completion hook: the
	// in-flight evaluation has drained (it is in History), and the next
	// one must abort with the context's error before being recorded.
	parallel.ResetAllMemos()
	ctx, cancel := context.WithCancel(context.Background())
	tgt := newChaosTarget(t, "410.bwaves")
	evals := 0
	tgt.OnEvaluate = func(Evaluation) {
		if evals++; evals == 2 {
			cancel()
		}
	}
	_, _, err = tgt.RunAlgorithmCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk: err = %v, want context.Canceled", err)
	}
	if got := len(tgt.history); got != 2 {
		t.Fatalf("history after cancel holds %d evaluations, want exactly the 2 drained ones", got)
	}

	// The cancelled evaluation must not be memoised: a rerun on the same
	// flags re-simulates and reproduces the baseline exactly.
	rerun := newChaosTarget(t, "410.bwaves")
	rerunRes, rerunPt, err := rerun.RunAlgorithmCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if rerunPt != basePt || !reflect.DeepEqual(rerunRes, baseRes) {
		t.Fatalf("rerun after cancel diverged from the baseline:\nbase  %v at %s\nrerun %v at %s",
			baseRes.Final, basePt, rerunRes.Final, rerunPt)
	}
}
