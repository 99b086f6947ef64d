// Package dram models main memory timing for the LPM reproduction,
// standing in for the DRAMSim2 module the paper used with GEM5. It
// reproduces the properties the paper's measurements depend on: variable
// access latency (row-buffer hits vs closed rows vs row conflicts),
// per-bank parallelism, bounded per-channel queues, and data-bus
// contention — so the miss penalties observed by the cache analyzers are
// load- and pattern-dependent rather than constant.
//
// All timing parameters are expressed in CPU cycles.
package dram

import (
	"fmt"
	"math/bits"

	"lpm/internal/obs"
)

// Sched selects the memory controller's scheduling policy.
type Sched uint8

// Scheduling policies.
const (
	// FCFS serves each channel's queue strictly in order.
	FCFS Sched = iota
	// FRFCFS (first-ready, first-come-first-served) prefers row-buffer
	// hits, the standard high-performance policy.
	FRFCFS
)

// String implements fmt.Stringer.
func (s Sched) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case FRFCFS:
		return "FR-FCFS"
	default:
		return fmt.Sprintf("Sched(%d)", uint8(s))
	}
}

// Config describes the memory system.
type Config struct {
	// Name labels the memory in reports.
	Name string
	// Channels is the number of independent channels, each with its own
	// data bus and queue.
	Channels int
	// BanksPerChannel is the number of DRAM banks behind each channel.
	BanksPerChannel int
	// RowBlocks is the row-buffer size in cache blocks; consecutive
	// blocks share a row, so streaming enjoys row hits.
	RowBlocks uint64
	// TCL, TRCD, TRP are CAS, RAS-to-CAS and precharge latencies; TBurst
	// is the data transfer time occupying the channel bus.
	TCL, TRCD, TRP, TBurst int
	// QueueDepth bounds each channel's request queue.
	QueueDepth int
	// Scheduler selects FCFS or FR-FCFS.
	Scheduler Sched
}

// Bounds Validate enforces. Channels are at most the width of DRAM.live,
// the live-channel bitmask. New allocates every bank up front, so the
// bank count is bounded. Each timing parameter is bounded so a request's
// service time (at most TRP+TRCD+TCL+TBurst) cannot overflow.
const (
	maxChannels = 64
	maxBanks    = 1024
	maxTiming   = 1 << 16
)

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("dram: config has no name")
	case c.Channels <= 0 || c.Channels > maxChannels:
		return fmt.Errorf("dram %s: channels %d, want 1..%d", c.Name, c.Channels, maxChannels)
	case c.BanksPerChannel <= 0 || c.BanksPerChannel > maxBanks:
		return fmt.Errorf("dram %s: banks %d, want 1..%d", c.Name, c.BanksPerChannel, maxBanks)
	case c.RowBlocks == 0:
		return fmt.Errorf("dram %s: zero row size", c.Name)
	case !inRange(c.TCL) || !inRange(c.TRCD) || !inRange(c.TRP) || !inRange(c.TBurst):
		return fmt.Errorf("dram %s: timing parameter outside 1..%d", c.Name, maxTiming)
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram %s: queue depth %d", c.Name, c.QueueDepth)
	case c.Scheduler > FRFCFS:
		return fmt.Errorf("dram %s: unknown scheduler %v", c.Name, c.Scheduler)
	}
	return nil
}

// inRange reports whether a timing parameter is in 1..maxTiming.
func inRange(cycles int) bool { return cycles > 0 && cycles <= maxTiming }

// DDR3 returns a default configuration loosely resembling one DDR3-1600
// channel pair viewed from a ~3 GHz core.
func DDR3(name string) Config {
	return Config{
		Name:            name,
		Channels:        2,
		BanksPerChannel: 8,
		RowBlocks:       128, // 8 KB rows of 64 B blocks
		TCL:             33,
		TRCD:            33,
		TRP:             33,
		TBurst:          8,
		QueueDepth:      32,
		Scheduler:       FRFCFS,
	}
}

// request is one queued memory operation. Its bank and row are worked
// out once, on arrival, for the scheduler's scans.
type request struct {
	block uint64
	row   uint64 // DRAM row holding block
	bank  int    // bank within the channel
	write bool
	src   int
	done  func(cycle uint64)
	at    uint64 // arrival cycle
}

// bank is one DRAM bank's row-buffer state.
type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// channel is one memory channel.
type channel struct {
	queue    []request
	banks    []bank
	busUntil uint64
	// stallUntil is set by a scan that found every queued request's bank
	// busy: the earliest cycle one of those banks frees. Bank state
	// changes only when this channel starts a request, so until then no
	// scan can pick; an arrival (which may target a free bank) clears it.
	stallUntil uint64
}

// pending is a scheduled completion.
type pending struct {
	done func(cycle uint64)
	at   uint64
}

// Stats counts memory events.
type Stats struct {
	// Reads and Writes count serviced requests.
	Reads, Writes uint64
	// RowHits, RowMisses, RowConflicts classify row-buffer outcomes.
	RowHits, RowMisses, RowConflicts uint64
	// Rejected counts requests refused because a channel queue was full.
	Rejected uint64
	// LatencySum accumulates read service latency (arrival to data) for
	// AvgReadLatency.
	LatencySum uint64
	// ActiveCycles counts cycles with any request queued or in service,
	// the denominator of the memory layer's APC.
	ActiveCycles uint64
	// BusBusyCycles accumulates, per cycle, the number of channel data
	// buses occupied by a burst — bus utilization is
	// BusBusyCycles / (cycles * channels).
	BusBusyCycles uint64
}

// Sub returns the counter-wise difference s - o, for windowed deltas of
// cumulative counters (o must be an earlier snapshot of the same memory).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		RowHits:       s.RowHits - o.RowHits,
		RowMisses:     s.RowMisses - o.RowMisses,
		RowConflicts:  s.RowConflicts - o.RowConflicts,
		Rejected:      s.Rejected - o.Rejected,
		LatencySum:    s.LatencySum - o.LatencySum,
		ActiveCycles:  s.ActiveCycles - o.ActiveCycles,
		BusBusyCycles: s.BusBusyCycles - o.BusBusyCycles,
	}
}

// APC returns requests serviced per memory-active cycle — the supply rate
// of the main-memory layer in the paper's LPM model (APC_3).
func (s Stats) APC() float64 {
	if s.ActiveCycles == 0 {
		return 0
	}
	return float64(s.Reads+s.Writes) / float64(s.ActiveCycles)
}

// AvgReadLatency returns the mean read latency in cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Reads)
}

// DRAM is the memory controller + devices. It implements the cache
// package's Lower interface. Create with New; call Tick once per cycle,
// after all caches.
type DRAM struct {
	cfg      Config
	channels []channel
	queued   int // requests waiting in channel queues, over all channels
	// live has bit ci set while channel ci has a queued request or a busy
	// bus as of the last Tick or AdvanceCycles; Tick walks only these.
	live     uint64
	pend     []pending
	nextDone uint64 // earliest completion cycle in pend (valid while pend is non-empty)
	now      uint64
	st       Stats
	ob       *dramObs
	tr       *obs.Tracer
}

// dramObs holds the controller's registry handles (nil when unobserved).
type dramObs struct {
	reads, writes, rowHits, rowMisses, rowConflicts, rejected *obs.Counter
	rowHitRate, avgReadLatency                                *obs.Gauge
	queueOcc                                                  *obs.Histogram
}

// AttachObs registers this memory's metrics under prefix (e.g. "dram")
// in r. A nil registry leaves the controller unobserved.
func (d *DRAM) AttachObs(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	depth := d.cfg.QueueDepth*d.cfg.Channels + 1
	n := depth
	if n > 32 {
		n = 32
	}
	d.ob = &dramObs{
		reads:          r.Counter(prefix + ".reads"),
		writes:         r.Counter(prefix + ".writes"),
		rowHits:        r.Counter(prefix + ".row_hits"),
		rowMisses:      r.Counter(prefix + ".row_misses"),
		rowConflicts:   r.Counter(prefix + ".row_conflicts"),
		rejected:       r.Counter(prefix + ".rejected"),
		rowHitRate:     r.Gauge(prefix + ".row_hit_rate"),
		avgReadLatency: r.Gauge(prefix + ".avg_read_latency"),
		queueOcc:       r.Histogram(prefix+".queue_occupancy", 0, float64(depth), n),
	}
}

// AttachTracer routes request-lifecycle events ("read"/"write" spans,
// arrival to data-ready) into t. A nil tracer disables tracing.
func (d *DRAM) AttachTracer(t *obs.Tracer) { d.tr = t }

// PublishObs copies the accumulated Stats into the attached registry;
// call before snapshotting. No-op when unobserved.
func (d *DRAM) PublishObs() {
	if d.ob == nil {
		return
	}
	d.ob.reads.Set(d.st.Reads)
	d.ob.writes.Set(d.st.Writes)
	d.ob.rowHits.Set(d.st.RowHits)
	d.ob.rowMisses.Set(d.st.RowMisses)
	d.ob.rowConflicts.Set(d.st.RowConflicts)
	d.ob.rejected.Set(d.st.Rejected)
	if total := d.st.RowHits + d.st.RowMisses + d.st.RowConflicts; total > 0 {
		d.ob.rowHitRate.Set(float64(d.st.RowHits) / float64(total))
	}
	d.ob.avgReadLatency.Set(d.st.AvgReadLatency())
}

// New builds a DRAM from cfg; it panics on invalid configuration.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return d
}

// Stats returns the event counters.
func (d *DRAM) Stats() Stats { return d.st }

// ResetCounters zeroes the counters, keeping device state.
func (d *DRAM) ResetCounters() { d.st = Stats{} }

// Busy reports whether requests are queued or completions outstanding.
func (d *DRAM) Busy() bool { return len(d.pend) > 0 || d.queued > 0 }

// QueuedRequests returns the number of requests currently waiting in
// channel queues — the bank-queue-depth probe of the time-series
// sampler and the queueing signal of the stall attribution.
func (d *DRAM) QueuedRequests() int { return d.queued }

// InFlight returns the number of scheduled completions not yet
// delivered — requests DRAM is actively servicing.
func (d *DRAM) InFlight() int { return len(d.pend) }

// Request implements cache.Lower; src is accepted for interface
// compatibility (the controller does not partition). A false return
// means the channel queue is full; retry next cycle.
func (d *DRAM) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	ch := &d.channels[block%uint64(d.cfg.Channels)]
	if len(ch.queue) >= d.cfg.QueueDepth {
		d.st.Rejected++
		return false
	}
	ch.queue = append(ch.queue, request{
		block: block, row: d.rowOf(block), bank: d.bankOf(block),
		write: write, src: src, done: done, at: cycle,
	})
	ch.stallUntil = 0
	d.queued++
	d.live |= 1 << (block % uint64(d.cfg.Channels))
	return true
}

// Tick advances the memory one cycle: fire due completions, then let each
// live channel start at most one request. A channel with an empty queue
// and a free bus can start nothing and keeps no bus busy, so only the
// live set is walked, and an idle controller walks none.
func (d *DRAM) Tick(cycle uint64) {
	d.now = cycle
	if d.live == 0 && len(d.pend) == 0 {
		if d.ob != nil {
			d.ob.queueOcc.Observe(0)
		}
		return
	}

	// Completions, in scheduling order. pend is not ordered by
	// completion cycle (channels finish independently), so it is walked
	// — but only in a cycle where something is due.
	if len(d.pend) > 0 && d.nextDone <= cycle {
		keep := d.pend[:0]
		next := ^uint64(0)
		for _, p := range d.pend {
			if p.at <= cycle {
				p.done(cycle)
				continue
			}
			keep = append(keep, p)
			if p.at < next {
				next = p.at
			}
		}
		d.pend, d.nextDone = keep, next
	}

	active := len(d.pend) > 0
	// Ascending channel order, as a walk over every channel would take:
	// it fixes the order completions enter pend, and so the order their
	// callbacks fire. The set is read after the completions, which may
	// queue new requests.
	for m := d.live; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		ch := &d.channels[ci]
		if len(ch.queue) != 0 && cycle >= ch.stallUntil {
			d.serviceChannel(ch)
		}
		switch {
		case ch.busUntil > cycle:
			d.st.BusBusyCycles++
		case len(ch.queue) == 0:
			d.live &^= 1 << ci
		}
	}
	if active || d.queued > 0 {
		d.st.ActiveCycles++
	}
	if d.ob != nil {
		d.ob.queueOcc.Observe(float64(d.queued))
	}
}

// rowOf maps a block to its DRAM row.
func (d *DRAM) rowOf(block uint64) uint64 {
	return block / d.cfg.RowBlocks
}

// bankOf maps a block to a bank within its channel.
func (d *DRAM) bankOf(block uint64) int {
	return int((block / uint64(d.cfg.Channels)) % uint64(d.cfg.BanksPerChannel))
}

// serviceChannel starts at most one eligible request on ch, whose queue
// is non-empty and whose stallUntil has passed.
func (d *DRAM) serviceChannel(ch *channel) {
	pick := -1
	if d.cfg.Scheduler == FRFCFS {
		// Prefer the oldest row-buffer hit on a free bank.
		for i := range ch.queue {
			r := &ch.queue[i]
			b := &ch.banks[r.bank]
			if b.busyUntil <= d.now && b.rowValid && b.openRow == r.row {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		// Oldest request whose bank is free; failing that, the cycle
		// the first of their banks frees.
		free := ^uint64(0)
		for i := range ch.queue {
			bu := ch.banks[ch.queue[i].bank].busyUntil
			if bu <= d.now {
				pick = i
				break
			}
			if bu < free {
				free = bu
			}
		}
		if pick < 0 {
			ch.stallUntil = free
			return
		}
	}
	r := ch.queue[pick]
	ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)
	d.queued--

	b := &ch.banks[r.bank]
	var access int
	switch {
	case b.rowValid && b.openRow == r.row:
		d.st.RowHits++
		access = d.cfg.TCL
	case !b.rowValid:
		d.st.RowMisses++
		access = d.cfg.TRCD + d.cfg.TCL
	default:
		d.st.RowConflicts++
		access = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL
	}
	b.openRow, b.rowValid = r.row, true

	// The data burst occupies the shared channel bus after the bank
	// access; bursts serialise on the bus.
	ready := d.now + uint64(access)
	if ch.busUntil > ready {
		ready = ch.busUntil
	}
	ready += uint64(d.cfg.TBurst)
	ch.busUntil = ready
	b.busyUntil = ready

	if r.done == nil {
		// Writeback: completes silently once scheduled.
		d.st.Writes++
		d.tr.Emit(d.cfg.Name, "write", r.src, r.at, ready, r.block)
		return
	}
	// Demand fetch (read, or read-for-ownership when write intent is
	// set): data returns to the requestor either way.
	d.st.Reads++
	d.st.LatencySum += ready - r.at
	d.tr.Emit(d.cfg.Name, "read", r.src, r.at, ready, r.block)
	if len(d.pend) == 0 || ready < d.nextDone {
		d.nextDone = ready
	}
	d.pend = append(d.pend, pending{done: r.done, at: ready})
}

// Fixed is a fixed-latency, optionally bandwidth-limited memory used for
// unit tests and idealised configurations. It implements cache.Lower.
type Fixed struct {
	// Latency is the constant service time in cycles.
	Latency uint64
	// PerCycle bounds requests accepted per cycle (0 = unlimited).
	PerCycle int

	now      uint64
	accepted int
	pend     []pending
	count    uint64
}

// Request implements cache.Lower.
func (f *Fixed) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	if cycle != f.now {
		// Ticked lazily: Request may be called before Tick this cycle.
		f.now, f.accepted = cycle, 0
	}
	if f.PerCycle > 0 && f.accepted >= f.PerCycle {
		return false
	}
	f.accepted++
	f.count++
	if done != nil {
		f.pend = append(f.pend, pending{done: done, at: cycle + f.Latency})
	}
	return true
}

// Count returns the number of accepted requests.
func (f *Fixed) Count() uint64 { return f.count }

// Busy reports outstanding completions.
func (f *Fixed) Busy() bool { return len(f.pend) > 0 }

// Tick fires due completions.
func (f *Fixed) Tick(cycle uint64) {
	if cycle > f.now {
		f.now, f.accepted = cycle, 0
	}
	keep := f.pend[:0]
	for _, p := range f.pend {
		if p.at <= cycle {
			p.done(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	f.pend = keep
}
