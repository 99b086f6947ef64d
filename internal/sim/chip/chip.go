// Package chip assembles the full-system simulator of the LPM
// reproduction: N out-of-order cores with private L1 data caches
// (optionally heterogeneous — the NUCA organisation of the paper's
// Fig. 5), a shared banked L2 acting as last-level cache, and a DRAM
// main memory. It stands in for the paper's GEM5 + DRAMSim2 testbed.
//
// The chip advances in lockstep cycles; per cycle the components tick in
// hierarchy order (cores, L1s, L2, DRAM), with cross-layer messages
// taking effect the following cycle. Every layer carries a C-AMAT
// analyzer, so all LPM model inputs are measured online, exactly as the
// paper's Fig. 4 detecting system does.
package chip

import (
	"context"
	"fmt"

	"lpm/internal/analyzer"
	"lpm/internal/obs"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/coherence"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// CoreSlot pairs a core configuration with its private L1 and workload.
type CoreSlot struct {
	// CPU configures the out-of-order core.
	CPU cpu.Config
	// L1 configures the private L1 data cache.
	L1 cache.Config
	// Workload feeds the core; nil leaves the core idle.
	Workload trace.Generator
}

// Config describes a chip.
type Config struct {
	// Name labels the chip in reports.
	Name string
	// Cores lists the core slots; heterogeneity is allowed.
	Cores []CoreSlot
	// L2 configures the shared last-level cache.
	L2 cache.Config
	// L3, when non-nil, adds a third cache level between the L2 and main
	// memory — the paper's "extension to additional cache levels".
	L3 *cache.Config
	// NoC, when non-nil, inserts a queued crossbar between the private
	// L1s and the shared L2 instead of the default 1-cycle hop.
	NoC *noc.Config
	// Coherent, when true, interposes a directory-based MSI protocol
	// between the L1s and the rest of the hierarchy; needed only when
	// workloads genuinely share addresses. CoherenceInvalLatency is the
	// per-write invalidation delay in cycles.
	Coherent              bool
	CoherenceInvalLatency uint64
	// Mem configures main memory.
	Mem dram.Config
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("chip: config has no name")
	}
	if len(c.Cores) == 0 {
		return fmt.Errorf("chip %s: no cores", c.Name)
	}
	for i := range c.Cores {
		if err := c.Cores[i].CPU.Validate(); err != nil {
			return fmt.Errorf("chip %s core %d: %w", c.Name, i, err)
		}
		if err := c.Cores[i].L1.Validate(); err != nil {
			return fmt.Errorf("chip %s core %d: %w", c.Name, i, err)
		}
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("chip %s: %w", c.Name, err)
	}
	if c.L3 != nil {
		if err := c.L3.Validate(); err != nil {
			return fmt.Errorf("chip %s: %w", c.Name, err)
		}
	}
	if c.NoC != nil {
		if err := c.NoC.Validate(); err != nil {
			return fmt.Errorf("chip %s: %w", c.Name, err)
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("chip %s: %w", c.Name, err)
	}
	return nil
}

// Chip is the assembled system. Create with New.
type Chip struct {
	cfg    Config
	cores  []*cpu.Core
	l1s    []*cache.Cache
	l2     *cache.Cache
	l3     *cache.Cache         // nil without a third level
	router *noc.Router          // nil without a NoC
	dir    *coherence.Directory // nil unless coherent
	mem    *dram.DRAM
	now    uint64
	sched  []component   // flat tick schedule, built once in New
	ffOff  bool          // true disables quiescent-cycle fast-forward
	tier   Tier          // execution fidelity (tier.go)
	reg    *obs.Registry // nil unless EnableObs was called
	ts     *tsState      // nil unless EnableTimeseries was called

	// Fast-forward probe back-off (fastforward.go): consecutive failed
	// probes and probes left to skip; ffJumped totals the cycles jumped
	// and is read by the tests only.
	ffFails, ffSkip uint8
	ffJumped        uint64

	// Hardened-execution state (watchdog.go): cancellation context, the
	// watchdog's no-progress budget and last observation, and the
	// latched run error that stops every run loop.
	ctx         context.Context
	wdBudget    uint64
	wdLastSig   uint64
	wdLastCycle uint64
	runErr      error
}

// New builds the chip; it panics on invalid configuration.
func New(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch := &Chip{cfg: cfg}
	ch.l2 = cache.New(cfg.L2)
	ch.mem = dram.New(cfg.Mem)
	if cfg.L3 != nil {
		ch.l3 = cache.New(*cfg.L3)
		ch.l2.SetLower(ch.l3)
		ch.l3.SetLower(ch.mem)
	} else {
		ch.l2.SetLower(ch.mem)
	}
	var l1Lower cache.Lower = ch.l2
	if cfg.NoC != nil {
		ch.router = noc.New(*cfg.NoC)
		ch.router.SetLower(ch.l2)
		l1Lower = ch.router
	}
	var uppers []coherence.Invalidator
	if cfg.Coherent {
		// The directory keeps a reference to the slice; the L1s are
		// attached as they are built below.
		uppers = make([]coherence.Invalidator, len(cfg.Cores))
		ch.dir = coherence.New(uppers, l1Lower)
		ch.dir.InvalidationLatency = cfg.CoherenceInvalLatency
		l1Lower = ch.dir
	}
	for i := range cfg.Cores {
		slot := &cfg.Cores[i]
		slot.L1.SrcID = i
		l1 := cache.New(slot.L1)
		l1.SetLower(l1Lower)
		if uppers != nil {
			uppers[i] = l1
		}
		ch.l1s = append(ch.l1s, l1)
		if slot.Workload != nil {
			ch.cores = append(ch.cores, cpu.New(slot.CPU, slot.Workload, l1))
		} else {
			ch.cores = append(ch.cores, nil)
		}
	}
	ch.buildSched()
	return ch
}

// Config returns the chip's configuration.
func (c *Chip) Config() Config { return c.cfg }

// Now returns the current cycle.
func (c *Chip) Now() uint64 { return c.now }

// Core returns core i's model (nil for idle slots).
func (c *Chip) Core(i int) *cpu.Core { return c.cores[i] }

// L1 returns core i's private cache.
func (c *Chip) L1(i int) *cache.Cache { return c.l1s[i] }

// L2 returns the shared last-level cache.
func (c *Chip) L2() *cache.Cache { return c.l2 }

// L3 returns the optional third-level cache (nil when absent).
func (c *Chip) L3() *cache.Cache { return c.l3 }

// Router returns the optional interconnect (nil when absent).
func (c *Chip) Router() *noc.Router { return c.router }

// Directory returns the optional coherence directory (nil when absent).
func (c *Chip) Directory() *coherence.Directory { return c.dir }

// Mem returns the DRAM model.
func (c *Chip) Mem() *dram.DRAM { return c.mem }

// EnableObs creates a metrics registry and attaches every component to
// it under stable prefixes (cpu.N, l1.N, l2, l3, noc, dram). Idempotent:
// repeat calls return the existing registry. The registry is owned by
// this chip's simulation goroutine.
func (c *Chip) EnableObs() *obs.Registry {
	if c.reg != nil {
		return c.reg
	}
	c.reg = obs.NewRegistry()
	for i, core := range c.cores {
		if core != nil {
			core.AttachObs(c.reg, fmt.Sprintf("cpu.%d", i))
		}
		c.l1s[i].AttachObs(c.reg, fmt.Sprintf("l1.%d", i))
	}
	c.l2.AttachObs(c.reg, "l2")
	if c.l3 != nil {
		c.l3.AttachObs(c.reg, "l3")
	}
	if c.router != nil {
		c.router.AttachObs(c.reg, "noc")
	}
	c.mem.AttachObs(c.reg, "dram")
	return c.reg
}

// AttachTracer routes memory-request lifecycle events from every cache
// level and the DRAM into t. Pass nil to detach.
func (c *Chip) AttachTracer(t *obs.Tracer) {
	for _, l1 := range c.l1s {
		l1.AttachTracer(t)
	}
	c.l2.AttachTracer(t)
	if c.l3 != nil {
		c.l3.AttachTracer(t)
	}
	c.mem.AttachTracer(t)
}

// ObsSnapshot publishes every component's accumulated stats into the
// registry and captures a snapshot. It returns nil when observability is
// not enabled.
func (c *Chip) ObsSnapshot() *obs.Snapshot {
	if c.reg == nil {
		return nil
	}
	for i, core := range c.cores {
		if core != nil {
			core.PublishObs()
		}
		c.l1s[i].PublishObs()
	}
	c.l2.PublishObs()
	if c.l3 != nil {
		c.l3.PublishObs()
	}
	if c.router != nil {
		c.router.PublishObs()
	}
	c.mem.PublishObs()
	return c.reg.Snapshot()
}

// Tick advances the whole chip one cycle, driving the flat schedule in
// hierarchy order (cores, L1s, directory, NoC, L2, L3, DRAM).
func (c *Chip) Tick() {
	c.requireDetailed("Tick")
	c.now++
	for _, comp := range c.sched {
		comp.Tick(c.now)
	}
	if c.ts != nil {
		c.tsAccumulate()
		c.ts.s.Tick(c.now)
	}
	if c.ctx != nil && c.now&1023 == 0 {
		if err := c.ctx.Err(); err != nil && c.runErr == nil {
			c.runErr = err
		}
	}
	if c.wdBudget > 0 && c.now-c.wdLastCycle >= c.wdBudget/4 {
		c.checkProgress()
	}
}

// Busy reports whether any component still has work in flight.
func (c *Chip) Busy() bool {
	for _, core := range c.cores {
		if core != nil && core.Busy() {
			return true
		}
	}
	for _, l1 := range c.l1s {
		if l1.Busy() {
			return true
		}
	}
	if c.l3 != nil && c.l3.Busy() {
		return true
	}
	if c.router != nil && c.router.Busy() {
		return true
	}
	if c.dir != nil && c.dir.Busy() {
		return true
	}
	return c.l2.Busy() || c.mem.Busy()
}

// RunCycles advances exactly n cycles (fewer if a run error latches).
func (c *Chip) RunCycles(n uint64) {
	limit := c.now + n
	for c.now < limit && c.runErr == nil {
		c.tryFastForward(limit - 1)
		c.Tick()
	}
}

// RunUntilRetired advances until every active core has retired at least
// minInstr instructions or maxCycles elapse, without halting fetch or
// draining — a detailed instruction-unit warm-up (see WarmUp).
func (c *Chip) RunUntilRetired(minInstr uint64, maxCycles uint64) {
	limit := c.now + maxCycles
	for c.now < limit && c.runErr == nil {
		done := true
		for _, core := range c.cores {
			if core != nil && !core.Halted() && core.Retired() < minInstr {
				done = false
				break
			}
		}
		if done {
			break
		}
		c.tryFastForward(limit - 1)
		c.Tick()
	}
}

// Run executes until every active core has retired at least minInstr
// instructions since the last ResetCounters (then halts fetch and drains
// in-flight work), or until maxCycles elapse. It returns the number of
// cycles consumed and whether all cores reached the target.
func (c *Chip) Run(minInstr uint64, maxCycles uint64) (cycles uint64, completed bool) {
	start := c.now
	limit := start + maxCycles
	for c.now < limit && c.runErr == nil {
		done := true
		for _, core := range c.cores {
			if core == nil || core.Halted() {
				continue
			}
			if core.Retired() >= minInstr {
				core.Halt()
			} else {
				done = false
			}
		}
		if done {
			break
		}
		c.tryFastForward(limit - 1)
		c.Tick()
	}
	// Drain.
	for c.Busy() && c.now < limit && c.runErr == nil {
		c.tryFastForward(limit - 1)
		c.Tick()
	}
	completed = true
	for _, core := range c.cores {
		if core != nil && core.Retired() < minInstr {
			completed = false
		}
	}
	return c.now - start, completed
}

// ResetCounters zeroes every analyzer and stats counter on the chip while
// preserving microarchitectural state — the online interval measurement
// the LPM algorithm performs.
func (c *Chip) ResetCounters() {
	// Close the in-progress time-series window against the pre-reset
	// counters first: its deltas and stall charges are only valid
	// relative to the old baselines, and conservation requires every
	// accumulated cycle to land in a window.
	if c.ts != nil {
		c.ts.s.Flush(c.now)
	}
	for _, core := range c.cores {
		if core != nil {
			core.ResetCounters()
		}
	}
	for _, l1 := range c.l1s {
		l1.ResetCounters()
	}
	c.l2.ResetCounters()
	if c.l3 != nil {
		c.l3.ResetCounters()
	}
	if c.router != nil {
		c.router.ResetCounters()
	}
	if c.dir != nil {
		c.dir.ResetCounters()
	}
	c.mem.ResetCounters()
	// The registry mirrors the per-window counters, so it resets with
	// them; the next ObsSnapshot covers exactly one measurement window.
	c.reg.ResetCounters()
	// The sampler's delta baselines track the cumulative counters, so
	// they re-anchor with them (at zero).
	if c.ts != nil {
		c.ts.rebase(c)
	}
}

// CoreReport aggregates one core's view of the system.
type CoreReport struct {
	// Name is the workload name (empty for idle cores).
	Name string
	// CPU carries the core counters.
	CPU cpu.Stats
	// L1 carries the private cache's C-AMAT parameters and event stats.
	L1      analyzer.Params
	L1Stats cache.Stats
}

// Report is a full-chip measurement snapshot.
type Report struct {
	// Cycles is the chip cycle counter at snapshot time.
	Cycles uint64
	// Cores holds one entry per slot.
	Cores []CoreReport
	// L2 carries the shared cache's C-AMAT parameters and event stats.
	L2      analyzer.Params
	L2Stats cache.Stats
	// Mem carries the DRAM counters.
	Mem dram.Stats
}

// Snapshot collects a Report.
func (c *Chip) Snapshot() Report {
	c.requireDetailed("Snapshot")
	r := Report{Cycles: c.now, L2: c.l2.Analyzer().Snapshot(), L2Stats: c.l2.Stats(), Mem: c.mem.Stats()}
	for i, core := range c.cores {
		cr := CoreReport{L1: c.l1s[i].Analyzer().Snapshot(), L1Stats: c.l1s[i].Stats()}
		if core != nil {
			cr.CPU = core.Stats()
			cr.Name = c.cfg.Cores[i].Workload.Name()
		}
		r.Cores = append(r.Cores, cr)
	}
	return r
}

// MeasureCPIexe runs cfg's core alone against a perfect memory with the
// given hit latency for n instructions and returns cycles per instruction
// — CPI_exe of Eq. (5). The generator is Reset before and after.
func MeasureCPIexe(cfg cpu.Config, gen trace.Generator, hitLatency uint64, n uint64) float64 {
	gen.Reset()
	mem := &cpu.Perfect{Latency: hitLatency}
	core := cpu.New(cfg, gen, mem)
	var cy uint64
	for core.Retired() < n && cy < n*1000 {
		cy++
		core.Tick(cy)
		mem.Tick(cy)
	}
	gen.Reset()
	return core.Stats().CPI()
}
