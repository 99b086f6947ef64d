package chip

import (
	"context"
	"reflect"
	"testing"

	"lpm/internal/obs/timeseries"
	"lpm/internal/trace"
)

// The probe back-off must not switch fast-forward off. These tests run a
// busy-then-quiescent schedule — a 401.bzip2 phase, where every probe
// fails and the back-off is engaged throughout, followed by a 429.mcf
// phase, where most cycles are quiescent — and require both that the
// fast-forward run equals the stepped run bit for bit and that the
// quiescent phase is still mostly jumped. They live inside the package
// for the jumped-cycle counter; the equivalence suite proper is
// equivalence_test.go.

const (
	busyInstr  = 30_000 // instructions of the bzip2 phase
	quietInstr = 8_000  // instructions measured in the mcf phase
	ffBudget   = 50_000_000

	// minJumpedShare is the least share of the quiescent phase's cycles a
	// fast-forward run must jump. The schedule is deterministic: the
	// phase jumps 0.57 of its cycles (0.62 with the back-off disabled); a
	// back-off that failed to re-arm would leave it near 0.
	minJumpedShare = 0.50
)

// busyThenQuiescent builds the one-core platform on a two-phase stream:
// bzip2 for busyInstr instructions, mcf from then on (the second phase
// is absorbing).
func busyThenQuiescent() Config {
	gen := trace.NewPhased("bzip2-then-mcf",
		[]trace.Profile{trace.MustProfile("401.bzip2"), trace.MustProfile("429.mcf")},
		[][]float64{{0, 1}, {0, 1}}, busyInstr, 1)
	return NUCASingle(gen, 32*KB)
}

// ffOutcome is everything a schedule leaves behind that stepping and
// fast-forward must agree on, plus the fast-forward run's jumped share
// of the quiescent phase.
type ffOutcome struct {
	report Report
	series timeseries.Series
	now    uint64
	err    error
}

// runSchedule drives the two phases. between runs after the busy phase,
// with the back-off in whatever state that phase left it.
func runSchedule(t *testing.T, ff bool, between func(*Chip)) (ffOutcome, float64) {
	t.Helper()
	c := New(busyThenQuiescent())
	c.SetFastForward(ff)
	c.RunUntilRetired(busyInstr, ffBudget)
	if ff && c.ffFails == 0 && c.ffSkip == 0 && c.ffJumped == 0 {
		t.Fatal("the busy phase never exercised the probe back-off")
	}
	if between != nil {
		between(c)
	}
	s := c.EnableTimeseries(timeseries.Config{Width: 2048, MaxWindows: 64})
	jumped, start := c.ffJumped, c.now
	c.Run(busyInstr+quietInstr, ffBudget)
	c.FlushTimeseries()
	share := 0.0
	if c.now > start {
		share = float64(c.ffJumped-jumped) / float64(c.now-start)
	}
	return ffOutcome{c.Snapshot(), s.Series(), c.now, c.Err()}, share
}

// checkSchedule runs the schedule stepped and fast-forwarded and fails on
// any divergence or on a quiescent phase that was not mostly jumped.
func checkSchedule(t *testing.T, between func(*Chip)) {
	t.Helper()
	fast, share := runSchedule(t, true, between)
	step, stepShare := runSchedule(t, false, between)
	if !reflect.DeepEqual(fast, step) {
		t.Fatalf("fast-forward diverged from stepping\nff:   %+v\nstep: %+v", fast, step)
	}
	if stepShare != 0 {
		t.Fatalf("the stepped run jumped %.2f of its cycles", stepShare)
	}
	if share < minJumpedShare {
		t.Fatalf("fast-forward jumped %.2f of the quiescent phase's cycles, want at least %.2f", share, minJumpedShare)
	}
}

func TestFastForwardSurvivesBusyPhase(t *testing.T) {
	t.Parallel()
	checkSchedule(t, nil)
}

// TestFastForwardBackoffAcrossResetCounters: a measurement window opens
// (ResetCounters) with the back-off mid-flight.
func TestFastForwardBackoffAcrossResetCounters(t *testing.T) {
	t.Parallel()
	checkSchedule(t, func(c *Chip) { c.ResetCounters() })
}

// TestFastForwardBackoffAcrossToggle: fast-forward is switched off with
// the back-off mid-flight, the chip steps for a while, and the run's own
// mode is restored.
func TestFastForwardBackoffAcrossToggle(t *testing.T) {
	t.Parallel()
	checkSchedule(t, func(c *Chip) {
		off := c.ffOff
		c.SetFastForward(false)
		c.RunCycles(777)
		c.SetFastForward(!off)
	})
}

// TestFastForwardBackoffLatchedError: a cancelled context latches at the
// same poll cycle stepped and fast-forwarded, and a latched chip neither
// probes nor jumps again.
func TestFastForwardBackoffLatchedError(t *testing.T) {
	t.Parallel()
	run := func(ff bool) (ffOutcome, *Chip) {
		ctx, cancel := context.WithCancel(context.Background())
		c := New(busyThenQuiescent())
		c.SetFastForward(ff)
		c.SetContext(ctx)
		c.RunUntilRetired(busyInstr, ffBudget)
		c.RunUntilRetired(busyInstr+quietInstr/2, ffBudget) // into the quiescent phase
		cancel()
		c.RunCycles(5000) // latches at the next 1024-cycle poll
		return ffOutcome{report: c.Snapshot(), now: c.now, err: c.Err()}, c
	}
	fast, c := run(true)
	step, _ := run(false)
	if fast.err == nil || !reflect.DeepEqual(fast, step) {
		t.Fatalf("latched runs differ\nff:   %+v\nstep: %+v", fast, step)
	}
	jumped, fails, skip, now := c.ffJumped, c.ffFails, c.ffSkip, c.now
	c.RunCycles(5000)
	c.tryFastForward(c.now + 5000)
	if c.ffJumped != jumped || c.ffFails != fails || c.ffSkip != skip || c.now != now {
		t.Fatal("a latched chip still probed or jumped")
	}
}
