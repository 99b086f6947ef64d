package explore

import (
	"context"

	"lpm/internal/core"
	"lpm/internal/faultinject"
	"lpm/internal/trace"
)

// Evaluation records one simulated design point.
type Evaluation struct {
	// Point is the hardware configuration evaluated.
	Point Point
	// M is the resulting LPM measurement.
	M core.Measurement
}

// HardwareTarget adapts the design space to the LPM algorithm's Target
// interface: each Optimize step moves one index along one parameter menu
// and each Measure simulates the current point. It is the paper's
// "hardware approach" (reconfigurable architecture).
type HardwareTarget struct {
	// Space is the parameter menu.
	Space Space
	// Profile names the workload.
	Profile trace.Profile
	// Instructions per evaluation run; 0 means 20000.
	Instructions uint64
	// Warmup instructions executed (and discarded) before the measured
	// window, so caches reach steady state the way the paper's SimPoint
	// samples do; 0 means 5 * Instructions.
	Warmup uint64
	// WarmupFast runs the warm-up in the functional tier (see
	// chip.WarmUp); the LPMR ordering the exploration consumes is
	// preserved. It joins the memo key.
	WarmupFast bool
	// MaxCycles bounds each evaluation; 0 means (Warmup+Instructions)*400.
	MaxCycles uint64
	// Observe, when set, enables the chip's metrics registry for every
	// evaluation so each Measurement carries a per-layer obs.Snapshot.
	// The flag is part of the memo key: observed and unobserved runs
	// never share cached results.
	Observe bool
	// Timeline, when set, attaches a cycle-windowed sampler to every
	// evaluation (after warm-up, so windows cover exactly the measured
	// interval) and each Measurement carries a timeseries.Series. Like
	// Observe, the flag is part of the memo key.
	Timeline bool
	// TimelineWindow overrides the sampler's base window width in cycles
	// (0 = the sampler default); only meaningful with Timeline set.
	TimelineWindow uint64
	// WatchdogCycles is the no-progress budget armed on every evaluation
	// chip; 0 uses DefaultWatchdogCycles. It does not join the memo key:
	// it cannot change a successful measurement.
	WatchdogCycles uint64
	// OnEvaluate, when non-nil, runs after every recorded evaluation —
	// the checkpoint layer's hook for persisting the memo and frontier
	// at simulation granularity.
	OnEvaluate func(Evaluation)

	ix      [6]int
	rrL1    int // round-robin cursor over the L1-layer knobs
	rrL2    int // round-robin cursor over the L2-layer knobs
	history []Evaluation
	cache   map[[6]int]core.Measurement
	evals   int
}

// l1Knobs are the index positions of parameters that raise layer-1
// matching (core-side request shaping + L1 service concurrency):
// issue width, IW, ROB, L1 ports.
var l1Knobs = [4]int{0, 1, 2, 3}

// l2Knobs raise layer-2 matching: L1 MSHRs (more outstanding misses to
// overlap) and L2 banks (more LLC service concurrency).
var l2Knobs = [2]int{4, 5}

// NewHardwareTarget starts exploration at the given point.
func NewHardwareTarget(space Space, start Point, profile trace.Profile) *HardwareTarget {
	t := &HardwareTarget{
		Space:   space,
		Profile: profile,
		cache:   make(map[[6]int]core.Measurement),
	}
	t.ix = space.Indices(start)
	return t
}

// Current returns the point under evaluation.
func (t *HardwareTarget) Current() Point { return t.Space.At(t.ix) }

// Evaluations returns the number of simulations run (cache misses of
// Measure).
func (t *HardwareTarget) Evaluations() int { return t.evals }

// Measure implements core.Target by simulating the current point (with
// memoisation: revisiting a point is free, like re-reading counters).
// ctx cancels the simulation cooperatively.
func (t *HardwareTarget) Measure(ctx context.Context) (core.Measurement, error) {
	if m, ok := t.cache[t.ix]; ok {
		return m, nil
	}
	m, err := t.Evaluate(ctx, t.Current())
	if err != nil {
		return m, err
	}
	t.cache[t.ix] = m
	return m, nil
}

// budgets resolves the per-run instruction and cycle budgets.
func (t *HardwareTarget) budgets() (instr, warm, maxCy uint64) {
	instr = t.Instructions
	if instr == 0 {
		instr = 20000
	}
	warm = t.Warmup
	if warm == 0 {
		warm = 5 * instr
	}
	maxCy = t.MaxCycles
	if maxCy == 0 {
		maxCy = (warm + instr) * 400
	}
	return instr, warm, maxCy
}

// DefaultWatchdogCycles is the evaluation watchdog's no-progress budget
// when the target does not set one. Healthy simulations retire something
// every few hundred cycles (a DRAM round trip); a million dead cycles is
// a livelock, not a slow phase.
const DefaultWatchdogCycles = 1_000_000

// spec is the full input fingerprint of simulating point p under the
// target's workload and budgets.
func (t *HardwareTarget) spec(p Point) SimSpec {
	instr, warm, maxCy := t.budgets()
	return SimSpec{
		Point:          p,
		Profile:        t.Profile,
		Instructions:   instr,
		Warmup:         warm,
		MaxCycles:      maxCy,
		Observe:        t.Observe,
		Timeline:       t.Timeline,
		TimelineWindow: t.TimelineWindow,
		WarmupFast:     t.WarmupFast,
		WatchdogCycles: t.WatchdogCycles,
	}
}

// Evaluate simulates an arbitrary point through simKind (memoised on
// spec(p), sharded when a fabric is active) and returns its measurement.
// A cancelled or livelocked simulation returns its error and is not
// recorded; cancellations are not memoised, livelocks (deterministic)
// are. Evaluations() and History() record the call whether or not the
// result came from the shared memo, so the reported simulation counts
// match the serial, memo-cold walk exactly. The faultinject point
// "explore.evaluate" (detail: workload name) lets the chaos tests kill
// a specific workload's evaluation mid-walk.
func (t *HardwareTarget) Evaluate(ctx context.Context, p Point) (core.Measurement, error) {
	if err := faultinject.Hit("explore.evaluate", t.Profile.Name); err != nil {
		return core.Measurement{}, err
	}
	m, err := simKind.Do(ctx, t.spec(p))
	if err != nil {
		return m, err
	}
	t.evals++
	ev := Evaluation{Point: p, M: m}
	t.history = append(t.history, ev)
	if t.OnEvaluate != nil {
		t.OnEvaluate(ev)
	}
	return m, nil
}

// menuLen returns the menu length of parameter k.
func (t *HardwareTarget) menuLen(k int) int {
	switch k {
	case 0:
		return len(t.Space.IssueWidths)
	case 1:
		return len(t.Space.IWSizes)
	case 2:
		return len(t.Space.ROBSizes)
	case 3:
		return len(t.Space.L1Ports)
	case 4:
		return len(t.Space.MSHRs)
	default:
		return len(t.Space.L2Banks)
	}
}

// bump advances parameter k to its next menu value; false at the top.
func (t *HardwareTarget) bump(k int) bool {
	if t.ix[k]+1 >= t.menuLen(k) {
		return false
	}
	t.ix[k]++
	return true
}

// drop lowers parameter k one menu step; false at the bottom.
func (t *HardwareTarget) drop(k int) bool {
	if t.ix[k] == 0 {
		return false
	}
	t.ix[k]--
	return true
}

// OptimizeL1 implements core.Target: raise the next L1-layer knob in
// round-robin order (the paper: "We increase IW, ROB, L1 cache port
// number and pipeline width").
func (t *HardwareTarget) OptimizeL1() bool {
	for range l1Knobs {
		k := l1Knobs[t.rrL1%len(l1Knobs)]
		t.rrL1++
		if t.bump(k) {
			return true
		}
	}
	return false
}

// OptimizeL2 implements core.Target: raise MSHRs / L2 interleaving.
func (t *HardwareTarget) OptimizeL2() bool {
	for range l2Knobs {
		k := l2Knobs[t.rrL2%len(l2Knobs)]
		t.rrL2++
		if t.bump(k) {
			return true
		}
	}
	return false
}

// ReduceOverprovision implements core.Target: withdraw the L1-layer knob
// whose *downward* step keeps the highest remaining value, preferring to
// shrink the big array structures (IW, ROB) first — the paper's D→E move.
func (t *HardwareTarget) ReduceOverprovision() bool {
	for _, k := range [4]int{1, 2, 0, 3} { // IW, ROB, issue, ports
		if t.drop(k) {
			return true
		}
	}
	return false
}

// RunAlgorithmCtx drives the LPM algorithm over the target under a
// cancellation context and returns its result together with the final
// point. A failed evaluation ends the walk: the steps taken so far come
// back with its error (errors.As reaches a *resilience.LivelockError
// through the chain).
func (t *HardwareTarget) RunAlgorithmCtx(ctx context.Context, cfg core.AlgorithmConfig) (core.Result, Point, error) {
	res, err := core.Run(ctx, t, cfg)
	return res, t.Current(), err
}
