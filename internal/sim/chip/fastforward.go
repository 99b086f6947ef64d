package chip

// Event-driven fast-forward: the chip's cycle loop is a lockstep
// stepper, but most cycles in a memory-bound interval are quiescent —
// every component would tick without changing state, merely re-walking
// unchanged queues and accruing per-cycle counters. Each component
// therefore exposes three hooks (Quiescent, NextEvent, AdvanceCycles);
// when every layer is quiescent the chip jumps straight to the cycle
// before the earliest self-scheduled event and accrues the skipped
// cycles' accounting in closed form. The jump is exact, not
// approximate: every observable counter — stats, C-AMAT analyzer
// classifications, stall attribution, occupancy histograms, watchdog
// and context-poll timing — is bit-identical to the stepped run, which
// the equivalence suites in equivalence_test.go and fastforward_test.go
// enforce.

// component is one schedulable element of the chip: it ticks in
// lockstep, and it cooperates with the fast-forward protocol.
type component interface {
	// Tick advances the component one cycle.
	Tick(cycle uint64)
	// Quiescent reports whether Tick at now+1 would change no state
	// beyond self-scheduled events exposed via NextEvent.
	Quiescent(now uint64) bool
	// NextEvent returns the earliest future cycle at which the
	// component's state changes on its own, or ^uint64(0) for none.
	NextEvent() uint64
	// AdvanceCycles accrues cycles now+1 .. now+n in bulk,
	// reproducing n quiescent Ticks bit-for-bit. Callers guarantee
	// Quiescent(now) and that no event fires at or before now+n.
	AdvanceCycles(now, n uint64)
}

// noEvent is the NextEvent value meaning "no self-scheduled event".
const noEvent = ^uint64(0)

// buildSched precomputes the flat tick schedule once at construction:
// the components in hierarchy order (cores, L1s, directory, NoC, L2,
// L3, DRAM) with idle core slots dropped, so the hot loop iterates one
// dense slice with no nil checks and no per-cycle allocation.
func (c *Chip) buildSched() {
	c.sched = c.sched[:0]
	for _, core := range c.cores {
		if core != nil {
			c.sched = append(c.sched, core)
		}
	}
	for _, l1 := range c.l1s {
		c.sched = append(c.sched, l1)
	}
	if c.dir != nil {
		c.sched = append(c.sched, c.dir)
	}
	if c.router != nil {
		c.sched = append(c.sched, c.router)
	}
	c.sched = append(c.sched, c.l2)
	if c.l3 != nil {
		c.sched = append(c.sched, c.l3)
	}
	c.sched = append(c.sched, c.mem)
}

// SetFastForward enables or disables quiescent-cycle fast-forward.
// It is on by default — results are bit-identical either way — and
// exists so the equivalence suite and benchmarks can pin the naive
// stepper as the reference.
func (c *Chip) SetFastForward(on bool) { c.ffOff = !on }

// Probe back-off: a probe that finds no jump has walked the schedule for
// nothing, and on a compute-bound chip nearly every probe fails. From the
// ffBackoffAfter-th consecutive failure on, every failed probe is
// followed by ffBackoffSkip cycles stepped unprobed; only a jump resets
// the count. Skipping a probe is stepping a cycle that might have been
// jumped, and a jump is exact whenever it is taken, so when probes run
// changes wall-clock only.
const (
	ffBackoffAfter = 4
	ffBackoffSkip  = 8
)

// tryFastForward runs inside every run loop after the loop's exit
// predicates and before the next Tick: if the whole chip is quiescent
// it advances time in one jump (see jumpTarget for how far). Jumping
// before the predicates would be wrong — they read state (Busy,
// Retired) that a jump deliberately freezes, so the loop must get its
// chance to exit at exactly the stepped cycle. This half is the guard,
// small enough to inline into the run loops; fastForward does the work.
func (c *Chip) tryFastForward(limit uint64) {
	if c.ffOff || c.runErr != nil {
		return
	}
	if c.ffSkip > 0 {
		c.ffSkip--
		return
	}
	c.fastForward(limit)
}

// fastForward probes for a jump and takes it.
func (c *Chip) fastForward(limit uint64) {
	now := c.now
	target := c.jumpTarget(limit)
	if target <= now {
		if c.ffFails < ffBackoffAfter-1 {
			c.ffFails++
		} else {
			c.ffSkip = ffBackoffSkip
		}
		return
	}
	c.ffFails = 0
	n := target - now
	c.ffJumped += n

	// Bulk-accrue the jumped cycles. Components first (cores stamp
	// their cycle class), then the sampler-side accounting that the
	// stepped loop performs after all components tick: per-core stall
	// attribution and occupancy sums, all constant across a quiescent
	// run, then the sampler's intra-window cycle count.
	for _, comp := range c.sched {
		comp.AdvanceCycles(now, n)
	}
	if c.ts != nil {
		ts := c.ts
		for i, core := range c.cores {
			ts.stall[i].ChargeN(c.classifyCoreCycle(core, i), n)
			if core != nil {
				ts.robOccSum[i] += uint64(core.ROBOccupancy()) * n
			}
			ts.l1OccSum[i] += uint64(c.l1s[i].OutstandingMisses()) * n
		}
		ts.l2OccSum += uint64(c.l2.OutstandingMisses()) * n
		if c.l3 != nil {
			ts.l3OccSum += uint64(c.l3.OutstandingMisses()) * n
		}
		ts.dramQSum += uint64(c.mem.QueuedRequests()) * n
		ts.s.AdvanceCycles(n)
	}
	c.now = target
}

// jumpTarget returns the cycle a fast-forward from c.now may jump to, or
// c.now when there is none: the earliest of the next component event,
// the next sampler window close, the next context poll, the next
// watchdog check, and the loop's own limit. Each cap is exclusive (the
// jump stops the cycle before), so the event itself is handled by an
// ordinary stepped Tick and observable behaviour cannot diverge from
// the stepped run.
func (c *Chip) jumpTarget(limit uint64) uint64 {
	now := c.now
	target := limit
	for _, comp := range c.sched {
		if !comp.Quiescent(now) {
			return now
		}
		if e := comp.NextEvent(); e != noEvent {
			if e <= now+1 {
				return now // due next cycle (or overdue): step it
			}
			if e-1 < target {
				target = e - 1
			}
		}
	}
	if c.ts != nil {
		// Never jump across a window close: the collector snapshots
		// live counters and must run on its exact stepped cycle.
		head := c.ts.s.Width() - c.ts.s.CyclesIntoWindow()
		if now+head-1 < target {
			target = now + head - 1
		}
	}
	if c.ctx != nil {
		// Never jump across a cancellation poll (every 1024 cycles).
		if poll := now | 1023; poll < target {
			target = poll
		}
	}
	if c.wdBudget > 0 {
		// Never jump across a watchdog check. Once the check cadence
		// has collapsed to every-cycle (no progress for over a quarter
		// budget), fast-forward stands down so the trip cycle matches
		// the stepped run exactly.
		next := c.wdLastCycle + c.wdBudget/4
		if next <= now {
			return now
		}
		if next-1 < target {
			target = next - 1
		}
	}
	return max(target, now)
}
