package chip

// Hardened-execution hooks: cooperative cancellation and a forward-
// progress watchdog. Both are opt-in and cost one nil/zero check per
// Tick when off; when armed they piggyback on the cycle counter so the
// hot loop stays branch-predictable (context polled every 1024 cycles,
// progress checked every quarter budget).

import (
	"context"
	"fmt"

	"lpm/internal/obs/timeseries"
	"lpm/internal/resilience"
)

// SetContext attaches ctx for cooperative cancellation: once ctx is
// cancelled, the next poll (at most 1024 cycles later) latches the
// context's error and every run loop stops. Pass nil to detach.
func (c *Chip) SetContext(ctx context.Context) { c.ctx = ctx }

// SetWatchdog arms the forward-progress watchdog: if no core commits an
// instruction and no cache or DRAM retires a request across budget
// consecutive cycles, the run loops stop with a *resilience.LivelockError
// carrying the diagnostic bundle. budget 0 disarms.
func (c *Chip) SetWatchdog(budget uint64) {
	c.wdBudget = budget
	c.wdLastSig = c.progressSig()
	c.wdLastCycle = c.now
}

// Err returns the latched run error: nil while healthy, the context's
// error after cancellation, or a *resilience.LivelockError after a
// watchdog trip. Once latched it stays; the chip is done.
func (c *Chip) Err() error { return c.runErr }

// progressSig folds every forward-progress counter into one value; any
// change between observations means the chip did something. Summing
// (rather than hashing) is enough: the counters are monotonic between
// resets, and a reset changes the sum too.
func (c *Chip) progressSig() uint64 {
	var s uint64
	for _, core := range c.cores {
		if core != nil {
			s += core.Retired()
		}
	}
	for _, l1 := range c.l1s {
		st := l1.Stats()
		s += st.Hits + st.Misses
	}
	ms := c.mem.Stats()
	return s + ms.Reads + ms.Writes
}

// checkProgress runs on the watchdog cadence: record progress, or trip
// once a full budget of cycles has passed without any.
func (c *Chip) checkProgress() {
	sig := c.progressSig()
	if sig != c.wdLastSig {
		c.wdLastSig = sig
		c.wdLastCycle = c.now
		return
	}
	if c.now-c.wdLastCycle >= c.wdBudget && c.runErr == nil {
		c.runErr = c.livelockError()
	}
}

// livelockError assembles the diagnostic bundle at trip time: retired
// counts, queue occupancies at every layer, and — when a sampler is
// attached — the per-core stall attribution accumulated since the last
// window plus the last closed timeline window.
func (c *Chip) livelockError() *resilience.LivelockError {
	e := &resilience.LivelockError{
		Workload:  c.cfg.Name,
		Cycle:     c.now,
		Budget:    c.wdBudget,
		Occupancy: make(map[string]uint64),
	}
	for _, core := range c.cores {
		var r uint64
		if core != nil {
			r = core.Retired()
		}
		e.Retired = append(e.Retired, r)
	}
	for i, l1 := range c.l1s {
		e.Occupancy[fmt.Sprintf("l1.%d.mshr_occupancy", i)] = uint64(l1.OutstandingMisses())
	}
	e.Occupancy["l2.mshr_occupancy"] = uint64(c.l2.OutstandingMisses())
	if c.l3 != nil {
		e.Occupancy["l3.mshr_occupancy"] = uint64(c.l3.OutstandingMisses())
	}
	if c.router != nil {
		e.Occupancy["noc.pending"] = uint64(c.router.Pending())
	}
	e.Occupancy["dram.queue_depth"] = uint64(c.mem.QueuedRequests())
	e.Occupancy["dram.in_flight"] = uint64(c.mem.InFlight())
	if c.ts != nil {
		e.Stalls = append([]timeseries.StallTree(nil), c.ts.stall...)
		if series := c.ts.s.Series(); len(series.Windows) > 0 {
			w := series.Windows[len(series.Windows)-1]
			e.Window = &w
		}
	}
	return e
}
