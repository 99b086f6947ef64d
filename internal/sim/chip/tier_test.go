package chip_test

import (
	"reflect"
	"testing"

	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/chip"
)

// mustPanic asserts that fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok || !containsStr(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFunctionalWarmsHierarchy: a functional warm-up leaves real
// architectural warmth behind — the detailed window after it sees L1
// hits immediately, unlike a cold start.
func TestFunctionalWarmsHierarchy(t *testing.T) {
	t.Parallel()
	const rounds = 20000
	run := func(warmed bool) uint64 {
		ch := chip.New(chip.SingleCore("456.hmmer"))
		if warmed {
			ch.SetTier(chip.TierFunctional)
			if err := ch.RunFunctional(rounds); err != nil {
				t.Fatal(err)
			}
			ch.SetTier(chip.TierDetailed)
		} else {
			// Advance the instruction stream to the same point without
			// warming anything, so both runs measure the same segment
			// and only the hierarchy state differs.
			for i := 0; i < rounds; i++ {
				ch.Core(0).FunctionalNext()
			}
		}
		ch.ResetCounters()
		ch.Run(2000, 4_000_000)
		return ch.Snapshot().Cores[0].L1Stats.Hits
	}
	cold := run(false)
	warm := run(true)
	if warm <= cold {
		t.Fatalf("functional warm-up did not warm the L1: cold hits %d, warmed hits %d", cold, warm)
	}
}

// TestFunctionalDeterminism: the functional-warm-then-measure pipeline
// is itself bit-reproducible run to run.
func TestFunctionalDeterminism(t *testing.T) {
	t.Parallel()
	run := func() chip.Report {
		ch := chip.New(chip.SingleCore("429.mcf"))
		ch.SetTier(chip.TierFunctional)
		if err := ch.RunFunctional(15000); err != nil {
			t.Fatal(err)
		}
		ch.SetTier(chip.TierDetailed)
		ch.ResetCounters()
		ch.Run(3000, 4_000_000)
		return ch.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("functional warm-up not deterministic\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestFunctionalTierResumesCleanly: after a tier round-trip the
// detailed engine still drains and completes a full run — the
// functional engine left every queue untouched.
func TestFunctionalTierResumesCleanly(t *testing.T) {
	t.Parallel()
	ch := chip.New(chip.SingleCore("433.milc"))
	ch.SetTier(chip.TierFunctional)
	if err := ch.RunFunctional(5000); err != nil {
		t.Fatal(err)
	}
	ch.SetTier(chip.TierDetailed)
	ch.ResetCounters()
	cycles, completed := ch.Run(4000, 4_000_000)
	if !completed {
		t.Fatalf("detailed run did not complete after tier round-trip (ran %d cycles)", cycles)
	}
	if ch.Busy() {
		t.Fatal("chip still busy after a drained detailed run")
	}
}

// TestTierGuards: the detailed-only entry points refuse the functional
// tier, RunFunctional refuses the detailed tier, and SetTier refuses to
// strand in-flight detailed work.
func TestTierGuards(t *testing.T) {
	t.Parallel()
	ch := chip.New(chip.SingleCore("410.bwaves"))
	mustPanic(t, "RunFunctional requires the functional tier", func() { ch.RunFunctional(1) })

	ch.SetTier(chip.TierFunctional)
	mustPanic(t, "Tick requires the detailed tier", func() { ch.Tick() })
	mustPanic(t, "Snapshot requires the detailed tier", func() { ch.Snapshot() })
	mustPanic(t, "Measure requires the detailed tier", func() { ch.Measure(0, 1) })
	mustPanic(t, "EnableTimeseries requires the detailed tier", func() { ch.EnableTimeseries(timeseries.Config{Width: 1024, MaxWindows: 4}) })

	ch.SetTier(chip.TierDetailed)
	ch.Run(50, 1_000_000)
	if ch.Busy() {
		// Mid-flight work: switching tiers now must refuse.
		mustPanic(t, "detailed work in flight", func() { ch.SetTier(chip.TierFunctional) })
	}
}

// TestTierStrings covers the Stringer.
func TestTierStrings(t *testing.T) {
	t.Parallel()
	if chip.TierDetailed.String() != "detailed" || chip.TierFunctional.String() != "functional" {
		t.Fatal("tier names changed")
	}
}
