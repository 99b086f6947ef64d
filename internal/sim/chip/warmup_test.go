package chip

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpm/internal/resilience"
	"lpm/internal/trace"
)

// twoCore builds the NUCA chip with two active cores (the rest idle), so
// per-core retirement and the shared layers both take part in the
// comparison.
func twoCore() *Chip {
	return New(NUCA16([]trace.Generator{
		trace.NewSynthetic(trace.MustProfile("403.gcc")),
		trace.NewSynthetic(trace.MustProfile("429.mcf")),
	}))
}

// TestWarmUpMatchesHandWrittenProtocol: over {detailed, functional} ×
// {instruction, cycle} warm-ups, WarmUp leaves the chip in exactly the
// state the hand-written sequence it replaced did — same clock, same
// per-core retirement, same counters after the measured window — and the
// window that follows ResetCounters is Run(window): its retirement count
// starts from zero, not from the warm-up's.
func TestWarmUpMatchesHandWrittenProtocol(t *testing.T) {
	const warm, window, maxCycles = 6000, 3000, 4_000_000
	cases := []struct {
		name string
		unit WarmUnit
		fast bool
		hand func(*Chip)
	}{
		{"detailed/instructions", WarmInstructions, false,
			func(c *Chip) { c.RunUntilRetired(warm, maxCycles) }},
		{"detailed/cycles", WarmCycles, false,
			func(c *Chip) { c.RunCycles(warm) }},
		{"functional/instructions", WarmInstructions, true,
			func(c *Chip) { c.SetTier(TierFunctional); _ = c.RunFunctional(warm); c.SetTier(TierDetailed) }},
		{"functional/cycles", WarmCycles, true,
			func(c *Chip) { c.SetTier(TierFunctional); _ = c.RunFunctional(warm); c.SetTier(TierDetailed) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, got := twoCore(), twoCore()
			tc.hand(want)
			if err := got.WarmUp(warm, tc.unit, tc.fast, maxCycles); err != nil {
				t.Fatal(err)
			}
			same := func(when string) {
				t.Helper()
				if got.Now() != want.Now() {
					t.Fatalf("%s: Now = %d, want %d", when, got.Now(), want.Now())
				}
				for i := 0; i < 2; i++ {
					if g, w := got.Core(i).Retired(), want.Core(i).Retired(); g != w {
						t.Fatalf("%s: core %d retired %d, want %d", when, i, g, w)
					}
				}
			}
			same("after warm-up")
			for _, c := range []*Chip{want, got} {
				c.ResetCounters()
				if tc.unit == WarmCycles {
					c.RunCycles(window)
				} else {
					c.Run(window, maxCycles)
				}
			}
			same("after window")
			if w, g := want.Snapshot(), got.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("window counters differ\n got %+v\nwant %+v", g, w)
			}
			if tc.unit == WarmInstructions {
				for i := 0; i < 2; i++ {
					// Run halts fetch once the target is met, which can
					// overshoot it by CommitWidth-1, then drains the ROB.
					cfg := got.Core(i).Config()
					hi := uint64(window + cfg.ROBSize + cfg.CommitWidth - 1)
					if r := got.Core(i).Retired(); r < window || r > hi {
						t.Fatalf("core %d retired %d in a %d-instruction window, want %d..%d", i, r, window, window, hi)
					}
				}
			}
		})
	}
}

// TestWarmUpReturnsLatchedError: a run error that latches during the
// warm-up — cancellation in either tier, a watchdog trip — comes back
// from WarmUp, so callers stop before measuring a window that never ran.
func TestWarmUpReturnsLatchedError(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fast := range []bool{false, true} {
		ch := New(SingleCore("401.bzip2"))
		ch.SetContext(cancelled)
		if err := ch.WarmUp(100_000, WarmInstructions, fast, 4_000_000); !errors.Is(err, context.Canceled) {
			t.Fatalf("fast=%v: err = %v, want Canceled", fast, err)
		}
		if ch.tier != TierDetailed {
			t.Fatalf("fast=%v: chip left in the %v tier", fast, ch.tier)
		}
	}
	// A halted core fetches nothing: the seeded livelock of the watchdog
	// tests, met during a cycle-unit warm-up.
	ch := New(SingleCore("401.bzip2"))
	ch.SetWatchdog(2000)
	ch.Core(0).Halt()
	err := ch.WarmUp(1_000_000, WarmCycles, false, 0)
	var ll *resilience.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want LivelockError", err)
	}
}
