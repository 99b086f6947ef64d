package chip

// Tiered fidelity: the chip runs in one of two tiers. The detailed tier
// is the cycle-accurate engine (Tick and the run loops, with
// quiescent-cycle fast-forward). The functional tier executes the same
// instruction streams with architectural-warmth-only semantics — cache
// tags, replacement order, dirty bits, directory sharers, DRAM open
// rows — at a per-instruction cost instead of a per-cycle cost. It
// exists for work whose timing is about to be thrown away: warming a
// hierarchy before a measured interval, and cheap frontier pruning in a
// design-space search. Functional execution is NOT timing-equivalent to
// the detailed engine: cycle counts, counters and timelines are
// meaningless in this tier, and the runtime guards below (plus the
// lpmlint tierdiscipline analyzer) keep observation APIs off it.

import "lpm/internal/trace"

// Tier selects the chip's execution fidelity.
type Tier uint8

// The tiers.
const (
	// TierDetailed is the cycle-accurate engine; the default.
	TierDetailed Tier = iota
	// TierFunctional executes instruction streams for architectural
	// warmth only (no timing, no counters, no observation).
	TierFunctional
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierDetailed:
		return "detailed"
	case TierFunctional:
		return "functional"
	default:
		return "tier(?)"
	}
}

// SetTier switches the execution tier. Entering the functional tier
// requires a drained pipeline (nothing Busy): the functional engine
// does not advance in-flight detailed work, so carrying it across the
// switch would wedge it. Returning to the detailed tier re-anchors the
// watchdog — functionally-executed instructions are progress, not a
// livelock.
func (c *Chip) SetTier(t Tier) {
	if t == c.tier {
		return
	}
	if t == TierFunctional && c.Busy() {
		panic("chip: SetTier(TierFunctional) with detailed work in flight")
	}
	c.tier = t
	if t == TierDetailed && c.wdBudget > 0 {
		c.wdLastSig = c.progressSig()
		c.wdLastCycle = c.now
	}
}

// requireDetailed panics when an observation or cycle-accurate entry
// point is used in the functional tier; op names the offender.
func (c *Chip) requireDetailed(op string) {
	if c.tier != TierDetailed {
		panic("chip: " + op + " requires the detailed tier; call SetTier(TierDetailed) first")
	}
}

// RunFunctional executes n instructions per active core in the
// functional tier, round-robin one instruction per core so the shared
// layers see an interleaved stream. Memory instructions warm the
// hierarchy (tags, replacement order, directory, DRAM rows); compute
// instructions only advance the generator. Each round advances the
// chip's clock one pseudo-cycle so replacement stamps stay ordered
// across the tier switch. It honours a latched run error and the
// cancellation context, and returns the latched error, if any.
func (c *Chip) RunFunctional(n uint64) error {
	if c.tier != TierFunctional {
		panic("chip: RunFunctional requires the functional tier; call SetTier(TierFunctional) first")
	}
	for round := uint64(0); round < n && c.runErr == nil; round++ {
		if c.ctx != nil && round&1023 == 1023 {
			if err := c.ctx.Err(); err != nil {
				c.runErr = err
				break
			}
		}
		c.now++
		for i, core := range c.cores {
			if core == nil || core.Halted() {
				continue
			}
			in := core.FunctionalNext()
			if in.Kind.IsMem() {
				c.l1s[i].WarmAccess(c.now, in.Addr, in.Kind == trace.Store)
			}
		}
	}
	return c.runErr
}
