// Package cpu models an out-of-order core at cycle granularity for the
// LPM reproduction, standing in for GEM5's detailed O3 CPU. What matters
// for LPM is faithfully generating the *concurrency-limited memory request
// stream* and accounting stall/overlap cycles:
//
//   - the issue width bounds dispatch and wakeup bandwidth,
//   - the instruction window (IW) bounds instructions simultaneously
//     pending execution, limiting memory-level parallelism,
//   - the reorder buffer (ROB) bounds total in-flight instructions and
//     forces in-order retirement, so a stalled memory op at its head
//     blocks the core — the data stall of Eq. (5),
//   - register dependences (including dependent/pointer-chasing loads)
//     serialise execution,
//   - the load/store queue bounds outstanding memory accesses.
//
// These are precisely the per-core parameters the paper's Table I sweeps
// (pipeline issue width, IW size, ROB size) plus the structures that feed
// C_H and C_M at the L1.
package cpu

import (
	"fmt"
	"math/bits"

	"lpm/internal/obs"
	"lpm/internal/trace"
)

// MemPort is the core's view of its L1 data cache. Access returns false
// when the request cannot be accepted this cycle (backpressure); done
// fires during a later cycle when the data is available.
type MemPort interface {
	Access(cycle uint64, addr uint64, write bool, done func(cycle uint64)) bool
}

// Config describes one core.
type Config struct {
	// Name labels the core in reports.
	Name string
	// IssueWidth is the dispatch/issue bandwidth per cycle (the paper's
	// "pipeline issue width").
	IssueWidth int
	// CommitWidth is the retire bandwidth per cycle; 0 means IssueWidth.
	CommitWidth int
	// ROBSize bounds in-flight (dispatched, unretired) instructions.
	ROBSize int
	// IWSize bounds dispatched-but-incomplete instructions (the
	// scheduler window).
	IWSize int
	// LSQSize bounds outstanding memory accesses; 0 means IWSize.
	LSQSize int
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("cpu: config has no name")
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu %s: issue width %d", c.Name, c.IssueWidth)
	case c.ROBSize <= 0:
		return fmt.Errorf("cpu %s: ROB size %d", c.Name, c.ROBSize)
	case c.IWSize <= 0:
		return fmt.Errorf("cpu %s: IW size %d", c.Name, c.IWSize)
	case c.CommitWidth < 0 || c.LSQSize < 0:
		return fmt.Errorf("cpu %s: negative width", c.Name)
	}
	return nil
}

// entry state.
const (
	stDispatched = iota // in ROB, waiting for operands or a port
	stExecuting         // latency counting down / memory outstanding
	stDone              // complete, awaiting in-order retirement
)

// robEntry is one in-flight instruction. Whether a dispatched entry's
// register dependence is satisfied lives in the core's readyBits bitmap,
// maintained by dispatch and wake.
type robEntry struct {
	in      trace.Instr
	seq     uint64
	state   uint8
	readyAt uint64 // completion cycle for compute ops

	// Dependence wakeup list: consumers blocked on this entry, as a
	// singly-linked chain of ROB slot indices (-1 ends the chain). An
	// entry waits on at most one producer, so it sits in at most one
	// chain; the chain is drained (and ready flags set) the moment the
	// producer completes, replacing a per-cycle dependence poll.
	firstWaiter int32
	nextWaiter  int32
}

// Stats accumulates core counters.
type Stats struct {
	// Cycles counts core ticks; Instructions counts retirements.
	Cycles       uint64
	Instructions uint64
	// MemInstructions counts retired loads+stores.
	MemInstructions uint64
	// StallCycles counts cycles with zero retirements while the ROB was
	// non-empty; MemStallCycles is the subset where the ROB head was an
	// incomplete memory access — the paper's data stall time.
	StallCycles    uint64
	MemStallCycles uint64
	// EmptyCycles counts cycles with an empty ROB (startup only, in
	// practice).
	EmptyCycles uint64
	// MemActiveCycles counts cycles with >= 1 outstanding memory access;
	// OverlapCycles is the subset where computation also progressed
	// (a compute op executing or an instruction retired).
	MemActiveCycles uint64
	OverlapCycles   uint64
	// LSQFullEvents and RejectedAccesses count structural stalls at the
	// memory interface.
	LSQFullEvents    uint64
	RejectedAccesses uint64
}

// Sub returns the counter-wise difference s - o, for windowed deltas of
// cumulative counters (o must be an earlier snapshot of the same core).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:           s.Cycles - o.Cycles,
		Instructions:     s.Instructions - o.Instructions,
		MemInstructions:  s.MemInstructions - o.MemInstructions,
		StallCycles:      s.StallCycles - o.StallCycles,
		MemStallCycles:   s.MemStallCycles - o.MemStallCycles,
		EmptyCycles:      s.EmptyCycles - o.EmptyCycles,
		MemActiveCycles:  s.MemActiveCycles - o.MemActiveCycles,
		OverlapCycles:    s.OverlapCycles - o.OverlapCycles,
		LSQFullEvents:    s.LSQFullEvents - o.LSQFullEvents,
		RejectedAccesses: s.RejectedAccesses - o.RejectedAccesses,
	}
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// OverlapRatio returns the computation/memory overlap ratio of Eq. (8):
// overlapped cycles over total memory access cycles.
func (s Stats) OverlapRatio() float64 {
	if s.MemActiveCycles == 0 {
		return 0
	}
	return float64(s.OverlapCycles) / float64(s.MemActiveCycles)
}

// DataStallPerInstr returns measured memory stall cycles per retired
// instruction — the quantity Eq. (12)/(13) model.
func (s Stats) DataStallPerInstr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.MemStallCycles) / float64(s.Instructions)
}

// CycleClass classifies what a core did in its most recent Tick — the
// per-cycle input of the time-series stall attribution. The chip refines
// CycleMemStall into a per-layer bucket using the hierarchy's occupancy
// probes.
type CycleClass uint8

// Cycle classes, set by Tick.
const (
	// CycleOff: the core is halted and drained; it did not consume the
	// cycle (attributed as empty time by the chip).
	CycleOff CycleClass = iota
	// CycleBusy: at least one instruction retired.
	CycleBusy
	// CycleEmpty: zero retirements with an empty ROB.
	CycleEmpty
	// CycleComputeStall: zero retirements, non-memory (or completed)
	// instruction at ROB head.
	CycleComputeStall
	// CycleMemStall: zero retirements, incomplete memory access at ROB
	// head — the data-stall cycle of Eq. (5).
	CycleMemStall
)

// Core is a cycle-driven out-of-order core. Create with New, then call
// Tick once per cycle before the caches.
type Core struct {
	cfg Config
	gen trace.Generator
	mem MemPort

	rob     []robEntry
	head    int
	count   int
	headSeq uint64 // seq of rob[head]
	nextSeq uint64

	// Scheduler worklists, so Tick touches only entries that can act
	// instead of walking the whole ROB. readyBits is a bitmap over ROB
	// slots marking dispatched entries whose dependence is satisfied
	// (the issue candidates); iterating it in ring order from head
	// visits them oldest-first, exactly the priority of a full ROB
	// scan, in O(words + candidates) per cycle. execComp holds the
	// stExecuting compute slots (pending completions). Both are exact:
	// a slot is marked/listed while and only while in the named state,
	// and a ROB slot is reused only after its occupant retired from
	// stDone, which neither tracks.
	readyBits []uint64
	execComp  []int32
	readyCnt  int // set bits in readyBits

	// memDone[i] is the completion callback for a memory op in ROB slot
	// i, built once at construction so issuing allocates no closure. A
	// slot's callback is armed by at most one access at a time: the
	// occupant cannot retire (and the slot cannot be reused) before its
	// fill fires and marks it done.
	memDone []func(cycle uint64)

	inIW   int // dispatched but not complete
	inLSQ  int // memory accesses outstanding
	halted bool

	st        Stats
	lastClass CycleClass
	ob        *coreObs
}

// coreObs holds the core's registry handles (nil when unobserved).
type coreObs struct {
	instructions, cycles, stalls, memStalls, lsqFull, rejected *obs.Counter
	ipc                                                        *obs.Gauge
	robOcc                                                     *obs.Histogram
}

// AttachObs registers this core's metrics under prefix (e.g. "cpu.0") in
// r. A nil registry leaves the core unobserved.
func (c *Core) AttachObs(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	n := c.cfg.ROBSize + 1
	if n > 32 {
		n = 32
	}
	c.ob = &coreObs{
		instructions: r.Counter(prefix + ".instructions"),
		cycles:       r.Counter(prefix + ".cycles"),
		stalls:       r.Counter(prefix + ".stalls"),
		memStalls:    r.Counter(prefix + ".mem_stalls"),
		lsqFull:      r.Counter(prefix + ".lsq_full"),
		rejected:     r.Counter(prefix + ".rejected_accesses"),
		ipc:          r.Gauge(prefix + ".ipc"),
		robOcc:       r.Histogram(prefix+".rob_occupancy", 0, float64(c.cfg.ROBSize+1), n),
	}
}

// PublishObs copies the accumulated Stats into the attached registry;
// call before snapshotting. No-op when unobserved.
func (c *Core) PublishObs() {
	if c.ob == nil {
		return
	}
	c.ob.instructions.Set(c.st.Instructions)
	c.ob.cycles.Set(c.st.Cycles)
	c.ob.stalls.Set(c.st.StallCycles)
	c.ob.memStalls.Set(c.st.MemStallCycles)
	c.ob.lsqFull.Set(c.st.LSQFullEvents)
	c.ob.rejected.Set(c.st.RejectedAccesses)
	c.ob.ipc.Set(c.st.IPC())
}

// New builds a core running gen against mem. It panics on invalid
// configuration.
func New(cfg Config, gen trace.Generator, mem MemPort) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.CommitWidth == 0 {
		cfg.CommitWidth = cfg.IssueWidth
	}
	if cfg.LSQSize == 0 {
		cfg.LSQSize = cfg.IWSize
	}
	c := &Core{
		cfg: cfg, gen: gen, mem: mem,
		rob:       make([]robEntry, cfg.ROBSize),
		readyBits: make([]uint64, (cfg.ROBSize+63)/64),
		execComp:  make([]int32, 0, cfg.ROBSize),
		memDone:   make([]func(cycle uint64), cfg.ROBSize),
	}
	for i := range c.memDone {
		e := &c.rob[i]
		c.memDone[i] = func(uint64) {
			e.state = stDone
			c.inIW--
			c.inLSQ--
			c.wake(e)
		}
	}
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Stats returns the counters.
func (c *Core) Stats() Stats { return c.st }

// ResetCounters zeroes the counters while keeping pipeline state.
func (c *Core) ResetCounters() { c.st = Stats{} }

// Retired returns the retired instruction count.
func (c *Core) Retired() uint64 { return c.st.Instructions }

// FunctionalNext draws the core's next instruction without touching
// pipeline state — the functional tier's fetch. The chip uses it to
// advance the instruction stream (and warm the memory hierarchy) while
// the detailed pipeline is drained.
func (c *Core) FunctionalNext() trace.Instr { return c.gen.Next() }

// Halt stops fetching new instructions; in-flight ones drain.
func (c *Core) Halt() { c.halted = true }

// Halted reports whether the core has stopped fetching.
func (c *Core) Halted() bool { return c.halted }

// Busy reports whether instructions are still in flight.
func (c *Core) Busy() bool { return c.count > 0 }

// LastClass returns the classification of the core's most recent cycle
// (CycleOff before the first Tick or once drained).
func (c *Core) LastClass() CycleClass { return c.lastClass }

// ROBOccupancy returns the current in-flight instruction count, the
// time-series ROB occupancy probe.
func (c *Core) ROBOccupancy() int { return c.count }

// IWOccupancy returns the dispatched-but-incomplete instruction count,
// the instruction-window occupancy probe.
func (c *Core) IWOccupancy() int { return c.inIW }

// at returns the ROB entry holding seq; the caller guarantees it is in
// flight.
func (c *Core) at(seq uint64) *robEntry {
	idx := c.head + int(seq-c.headSeq)
	if idx >= len(c.rob) {
		idx -= len(c.rob)
	}
	return &c.rob[idx]
}

// depReady reports whether e's register dependence is satisfied. It is
// the reference predicate: the hot paths read the cached e.ready flag,
// which dispatch seeds with this value and wake keeps current (the
// predicate is monotone — a producer never becomes un-done).
func (c *Core) depReady(e *robEntry) bool {
	if e.in.Dep == 0 || uint64(e.in.Dep) > e.seq {
		return true // no producer, or it would precede the stream
	}
	dep := e.seq - uint64(e.in.Dep)
	if dep < c.headSeq {
		return true // producer already retired
	}
	return c.at(dep).state == stDone
}

// setReady / clearReady maintain the issue-candidate bitmap.
func (c *Core) setReady(idx int32) {
	c.readyBits[idx>>6] |= 1 << uint(idx&63)
	c.readyCnt++
}

func (c *Core) clearReady(idx int) {
	c.readyBits[idx>>6] &^= 1 << uint(idx&63)
	c.readyCnt--
}

// wake marks every consumer waiting on e ready and empties e's chain.
// Call exactly when e transitions to stDone (compute completion or
// memory fill); the chain is then empty for the rest of the occupancy,
// so the slot recycles clean.
func (c *Core) wake(e *robEntry) {
	for w := e.firstWaiter; w >= 0; {
		c.setReady(w)
		we := &c.rob[w]
		w, we.nextWaiter = we.nextWaiter, -1
	}
	e.firstWaiter = -1
}

// issueRange performs the issue stage over the ready candidates in ROB
// slots [lo, hi), oldest-first (the caller splits the ring into at most
// two in-order ranges). Each word of the candidate bitmap is re-read
// after every visit, so a completion fired from inside a memory-port
// callback wakes later candidates exactly as a live in-order ROB scan
// would see them. Returns false once the issue budget is exhausted —
// the cutoff leaves the remaining candidates unvisited and uncharged,
// matching the full scan's early abort.
func (c *Core) issueRange(cycle uint64, lo, hi int, issued *int, computeExecuting *bool) bool {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		mask := ^uint64(0)
		if base < lo {
			mask <<= uint(lo - base)
		}
		if hi-base < 64 {
			mask &= 1<<uint(hi-base) - 1
		}
		for {
			word := c.readyBits[wi] & mask
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			mask &^= 1 << uint(b)
			if *issued >= c.cfg.IssueWidth {
				return false
			}
			idx := base + b
			e := &c.rob[idx]
			if e.in.Kind == trace.Compute {
				e.state = stExecuting
				e.readyAt = cycle + uint64(e.in.Lat)
				*issued++
				*computeExecuting = true
				c.execComp = append(c.execComp, int32(idx))
				c.clearReady(idx)
				continue
			}
			// Memory operation: needs an LSQ slot and L1 acceptance.
			if c.inLSQ >= c.cfg.LSQSize {
				c.st.LSQFullEvents++
				continue
			}
			if !c.mem.Access(cycle, e.in.Addr, e.in.Kind == trace.Store, c.memDone[idx]) {
				c.st.RejectedAccesses++
				continue
			}
			e.state = stExecuting
			c.inLSQ++
			*issued++
			c.clearReady(idx)
		}
	}
	return true
}

// Tick advances the core one cycle.
func (c *Core) Tick(cycle uint64) {
	if c.halted && c.count == 0 {
		c.lastClass = CycleOff
		return // fully drained: the core is off, time no longer accrues
	}
	c.st.Cycles++

	// 1. Complete compute ops whose latency expired. (Memory ops complete
	// via the cache callback.) Same-cycle completions are independent, so
	// walking the worklist in issue order matches the ROB-order walk.
	computeExecuting := false
	if len(c.execComp) > 0 {
		w := 0
		for _, idx := range c.execComp {
			e := &c.rob[idx]
			if e.readyAt <= cycle {
				e.state = stDone
				c.inIW--
				c.wake(e)
				continue
			}
			computeExecuting = true
			c.execComp[w] = idx
			w++
		}
		c.execComp = c.execComp[:w]
	}

	// 2. Retire in order.
	retired := 0
	for retired < c.cfg.CommitWidth && c.count > 0 {
		e := &c.rob[c.head]
		if e.state != stDone {
			break
		}
		if e.in.Kind.IsMem() {
			c.st.MemInstructions++
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.headSeq++
		c.count--
		retired++
		c.st.Instructions++
	}

	// 3. Issue ready instructions to execution, oldest first. The
	// worklist holds the dispatched entries in program order, so the
	// walk visits exactly the entries the full ROB scan would, in the
	// same order; once the issue budget is spent the remainder is kept
	// unvisited (no structural-stall charges past the cutoff, as
	// before).
	if c.readyCnt > 0 { // nothing can issue (or stall-charge) otherwise
		issued := 0
		hi := c.head + c.count
		if hi <= len(c.rob) {
			c.issueRange(cycle, c.head, hi, &issued, &computeExecuting)
		} else if c.issueRange(cycle, c.head, len(c.rob), &issued, &computeExecuting) {
			c.issueRange(cycle, 0, hi-len(c.rob), &issued, &computeExecuting)
		}
	}

	// 4. Fetch/dispatch new instructions.
	if !c.halted {
		for d := 0; d < c.cfg.IssueWidth; d++ {
			if c.count >= c.cfg.ROBSize || c.inIW >= c.cfg.IWSize {
				break
			}
			tail := c.head + c.count
			if tail >= len(c.rob) {
				tail -= len(c.rob)
			}
			in := c.gen.Next()
			c.rob[tail] = robEntry{
				in: in, seq: c.nextSeq, state: stDispatched,
				firstWaiter: -1, nextWaiter: -1,
			}
			// Seed the dependence state: an issue candidate unless the
			// producer is still in flight and incomplete, in which case
			// join its wakeup chain (depReady is this logic,
			// slot-resolved).
			waiting := false
			if in.Dep != 0 && uint64(in.Dep) <= c.nextSeq {
				dep := c.nextSeq - uint64(in.Dep)
				if dep >= c.headSeq {
					pidx := c.head + int(dep-c.headSeq)
					if pidx >= len(c.rob) {
						pidx -= len(c.rob)
					}
					if p := &c.rob[pidx]; p.state != stDone {
						waiting = true
						c.rob[tail].nextWaiter = p.firstWaiter
						p.firstWaiter = int32(tail)
					}
				}
			}
			if !waiting {
				c.setReady(int32(tail))
			}
			c.nextSeq++
			c.count++
			c.inIW++
		}
	}

	// 5. Cycle accounting.
	if retired > 0 {
		c.lastClass = CycleBusy
	} else if c.count == 0 {
		c.st.EmptyCycles++
		c.lastClass = CycleEmpty
	} else {
		c.st.StallCycles++
		c.lastClass = CycleComputeStall
		head := &c.rob[c.head]
		if head.in.Kind.IsMem() && head.state != stDone {
			c.st.MemStallCycles++
			c.lastClass = CycleMemStall
		}
	}
	if c.inLSQ > 0 {
		c.st.MemActiveCycles++
		if computeExecuting || retired > 0 {
			c.st.OverlapCycles++
		}
	}
	if c.ob != nil {
		c.ob.robOcc.Observe(float64(c.count))
	}
}
