// Package faultinject is the repository's deterministic fault-injection
// harness: a process-global failpoint registry the chaos tests arm to
// make production code fail on demand — a worker panicking at the Nth
// task, a checkpoint write that dies mid-rename, a simulation that
// livelocks for one workload and one workload only.
//
// Production code marks an injectable site with
//
//	if err := faultinject.Hit("explore.evaluate", profileName); err != nil { ... }
//
// With no plan armed (the production state) Hit is a single atomic load
// and returns nil. A test arms a Plan of rules; each rule names a point,
// optionally restricts it to details containing a substring, and fires
// after a configurable number of matching hits — either returning an
// error (wrapping ErrInjected) or panicking with it. Rules fire on hit
// *counts*, and an optional probability draws from a seeded PRNG, so a
// plan replays identically for a given seed and hit order.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lpm/internal/stats"
)

// ErrInjected is the sentinel every injected fault wraps; recovery code
// and tests distinguish injected faults with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Kind selects what a firing rule does.
type Kind uint8

const (
	// KindError makes Hit return the injected error.
	KindError Kind = iota
	// KindPanic makes Hit panic with the injected error, simulating a
	// crashing worker or a kill -9 at the injection point.
	KindPanic
)

// Rule describes one injected fault.
type Rule struct {
	// Point names the injection site, e.g. "explore.evaluate".
	Point string
	// Match restricts the rule to hits whose detail string contains this
	// substring; empty matches every detail.
	Match string
	// After is the number of matching hits to let pass before firing:
	// After == 2 fires on the third matching hit.
	After int
	// Times bounds how often the rule fires; 0 means once.
	Times int
	// Prob, when in (0,1), gates each would-be firing on a draw from the
	// plan's seeded PRNG; 0 (or >= 1) fires unconditionally.
	Prob float64
	// Kind selects error-return or panic.
	Kind Kind
	// Msg is included in the injected error text.
	Msg string
}

// ruleState is a rule plus its firing counters.
type ruleState struct {
	Rule
	hits  int
	fired int
}

// Plan is an armed set of rules with the seeded PRNG behind Prob rules.
// One Plan serialises all Hit calls through its mutex, which keeps
// counting (and therefore firing) deterministic even when the points sit
// on concurrent worker goroutines — the serialisation is the harness's
// determinism guarantee and its cost is paid only while a test has the
// plan armed.
type Plan struct {
	mu    sync.Mutex
	rng   uint64
	rules []*ruleState
}

// NewPlan builds a plan from rules; seed drives the Prob draws.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{rng: uint64(seed)*2862933555777941757 + 3037000493}
	for _, r := range rules {
		p.rules = append(p.rules, &ruleState{Rule: r})
	}
	return p
}

// next64 is a splitmix64 step — deterministic and seedable.
func (p *Plan) next64() uint64 { return stats.SplitMix64(&p.rng) }

// armed holds the active plan; nil in production.
var armed atomic.Pointer[Plan]

// Arm installs p as the process-wide plan and returns a restore func
// that re-installs the previous plan (tests defer it). Arming is meant
// for tests only; concurrent Arm calls race by design of "last wins".
func Arm(p *Plan) (restore func()) {
	prev := armed.Swap(p)
	return func() { armed.Store(prev) }
}

// Hits returns how many times the named point was hit on the armed
// plan's rules (max across rules matching the point), for test
// assertions. Returns 0 when nothing is armed.
func Hits(point string) int {
	p := armed.Load()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.rules {
		if r.Point == point && r.hits > n {
			n = r.hits
		}
	}
	return n
}

// Hit marks one execution of the named injection point. It returns nil
// (or panics / returns an injected error) according to the armed plan;
// with no plan armed it is a single atomic load.
func Hit(point, detail string) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.hit(point, detail)
}

func (p *Plan) hit(point, detail string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.Point != point {
			continue
		}
		if r.Match != "" && !strings.Contains(detail, r.Match) {
			continue
		}
		r.hits++
		times := r.Times
		if times == 0 {
			times = 1
		}
		if r.hits <= r.After || r.fired >= times {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			draw := float64(p.next64()>>11) / float64(1<<53)
			if draw >= r.Prob {
				continue
			}
		}
		r.fired++
		err := fmt.Errorf("%w: %s(%s): %s", ErrInjected, point, detail, r.Msg)
		if r.Kind == KindPanic {
			panic(err)
		}
		return err
	}
	return nil
}
