// Package timeseries is the time-resolved half of the observability
// layer: a cycle-windowed sampler every simulator layer publishes into,
// turning the aggregate per-run metrics of package obs into per-window
// series — IPC, per-layer C-AMAT parameters, DRAM row behaviour, NoC
// queueing — plus a top-down stall-attribution tree whose buckets
// partition every core cycle exactly (see stall.go).
//
// The paper's argument is that layered mismatch is *time-varying*:
// LPMR1/2/3 open and close as program phases shift. A Sampler makes that
// visible. It closes a Window every Width cycles (the last one at Flush
// may be shorter), and each Window carries the raw counters its
// per-window C-AMAT and LPMR values derive from. A window is final when
// it closes: nothing writes it again, so the control plane can hand the
// one stored copy to every reader.
//
// Like the rest of the observability layer, the sampler is zero-cost
// when disabled: a nil *Sampler ignores every call, so an unobserved
// chip pays one predictable branch per cycle. A Sampler is owned by a
// single simulation goroutine and is not synchronised; serving windows
// mid-run goes through Config.OnWindow to the control plane's ctrl.Hub,
// which owns the synchronisation.
package timeseries

import (
	"slices"
	"sort"
	"strings"

	"lpm/internal/analyzer"
)

// SeriesVersion is the schema version stamped on every Series; bump it
// on any incompatible change to the timeline JSON shape.
const SeriesVersion = 1

// DefaultWidth is the window width in cycles when Config.Width is
// zero.
const DefaultWidth = 2048

// DefaultMaxWindows bounds stored windows when Config.MaxWindows is
// zero; the oldest windows are dropped (and counted) past it.
const DefaultMaxWindows = 4096

// Config parameterises a Sampler.
type Config struct {
	// Width is the window width in cycles (0 = DefaultWidth).
	Width uint64
	// MaxWindows bounds stored windows (0 = DefaultMaxWindows).
	MaxWindows int
	// CPIexe, when positive, enables the per-window LPMR derivation
	// (Eq. 9-11 need the perfect-cache CPI calibration constant).
	CPIexe float64
	// OnWindow, when non-nil, receives every closed window in order —
	// the live-export hook. It runs on the simulation goroutine. The
	// window is the sampler's own stored copy, and the sampler never
	// writes it again, so the receiver may keep and share the pointer;
	// it must not write through it.
	OnWindow func(*Window)
}

// probe is one named instantaneous gauge sampled at window boundaries.
type probe struct {
	name string
	fn   func() float64
}

// Sampler accumulates cycle windows. The nil *Sampler is valid and
// ignores every call — the disabled fast path. Create with New; the
// owning component (the chip) wires a collector with SetCollector and
// calls Tick once per simulated cycle.
type Sampler struct {
	cfg     Config
	collect func(cycles uint64) Window
	probes  []probe // sorted by name

	windows   []*Window
	winCycles uint64
	dropped   uint64
}

// New returns a sampler for cfg.
func New(cfg Config) *Sampler { return &Sampler{cfg: cfg} }

// Width returns the effective window width.
func (s *Sampler) Width() uint64 {
	if s == nil {
		return 0
	}
	if s.cfg.Width == 0 {
		return DefaultWidth
	}
	return s.cfg.Width
}

func (s *Sampler) maxWindows() int {
	if s.cfg.MaxWindows == 0 {
		return DefaultMaxWindows
	}
	return s.cfg.MaxWindows
}

// SetCollector wires the payload builder: collect(cycles) must return a
// Window covering the last `cycles` ticks (Start/End are stamped by the
// sampler). The chip installs a closure that deltas every layer's
// cumulative counters.
func (s *Sampler) SetCollector(collect func(cycles uint64) Window) {
	if s == nil {
		return
	}
	s.collect = collect
}

// Track registers a named instantaneous probe sampled at every window
// boundary (e.g. an occupancy or a derived gauge). Names must be
// program constants or constant-suffixed (prefix + ".name") so series
// stay stable across runs — enforced by lpmlint's obsdiscipline rule.
// Probes are kept sorted by name (equal names in registration order),
// which is the order their values take in each window.
func (s *Sampler) Track(name string, fn func() float64) {
	if s == nil {
		return
	}
	i := sort.Search(len(s.probes), func(i int) bool { return s.probes[i].name > name })
	s.probes = slices.Insert(s.probes, i, probe{name: name, fn: fn})
}

// Tick advances the sampler one cycle; on a window boundary it
// collects, derives and stores the window. Call exactly once per
// simulated cycle, after every component has ticked.
func (s *Sampler) Tick(cycle uint64) {
	if s == nil {
		return
	}
	s.winCycles++
	if s.winCycles >= s.Width() {
		s.close(cycle)
	}
}

// AdvanceCycles credits n cycles to the open window without touching a
// boundary — the fast-forward bulk form of Tick. The caller must
// guarantee the jump lands strictly before the next window boundary
// (winCycles + n < Width); the boundary cycle itself is always stepped
// so close() observes the same cycle stamp as a stepped run.
func (s *Sampler) AdvanceCycles(n uint64) {
	if s == nil {
		return
	}
	if s.winCycles+n >= s.Width() {
		panic("timeseries: AdvanceCycles across a window boundary")
	}
	s.winCycles += n
}

// CyclesIntoWindow returns how many cycles of the open window have
// accumulated since the last boundary — what the chip's fast-forward
// uses to cap a jump below the next boundary.
func (s *Sampler) CyclesIntoWindow() uint64 {
	if s == nil {
		return 0
	}
	return s.winCycles
}

// Flush closes the in-progress partial window, if any cycles have
// accumulated since the last boundary. Call at end of run so the tail
// of the timeline is not lost.
func (s *Sampler) Flush(cycle uint64) {
	if s == nil {
		return
	}
	if s.winCycles > 0 {
		s.close(cycle)
	}
}

// close builds the window ending at cycle (inclusive), derives its
// model quantities and appends it. The stored window is final:
// OnWindow receivers share its pointer.
func (s *Sampler) close(cycle uint64) {
	if s.collect == nil {
		s.winCycles = 0
		return
	}
	w := s.collect(s.winCycles)
	w.End = cycle + 1
	w.Start = w.End - s.winCycles
	s.winCycles = 0
	w.Probes = s.sampleProbes()
	w.finalize(s.cfg.CPIexe)
	w.Phase = -1
	w.Index = s.nextIndex()
	s.windows = append(s.windows, &w)
	if len(s.windows) > s.maxWindows() {
		over := len(s.windows) - s.maxWindows()
		s.dropped += uint64(over)
		s.windows = slices.Delete(s.windows, 0, over)
	}
	if s.cfg.OnWindow != nil {
		s.cfg.OnWindow(&w)
	}
}

// nextIndex returns the index for a fresh window (monotonic even after
// drops).
func (s *Sampler) nextIndex() int {
	if len(s.windows) == 0 {
		return int(s.dropped)
	}
	return s.windows[len(s.windows)-1].Index + 1
}

// sampleProbes evaluates every registered probe, sorted by name.
func (s *Sampler) sampleProbes() []ProbeValue {
	if len(s.probes) == 0 {
		return nil
	}
	vals := make([]ProbeValue, len(s.probes))
	for i, p := range s.probes {
		vals[i] = ProbeValue{Name: p.name, Value: p.fn()}
	}
	return vals
}

// Windows returns the number of closed windows so far.
func (s *Sampler) Windows() int {
	if s == nil {
		return 0
	}
	return len(s.windows)
}

// Series returns a copy of the timeline accumulated so far.
func (s *Sampler) Series() Series {
	if s == nil {
		return Series{}
	}
	return Series{
		Version: SeriesVersion,
		Width:   s.Width(),
		Dropped: s.dropped,
		Windows: copyWindows(s.windows),
	}
}

// copyWindows returns the stored windows as values (nil when there are
// none, so an empty timeline still encodes as "windows": null).
func copyWindows(ws []*Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	out := make([]Window, len(ws))
	for i, w := range ws {
		out[i] = *w
	}
	return out
}

// Series is a versioned, JSON-serialisable timeline: the ordered closed
// windows of one sampler.
type Series struct {
	// Version is SeriesVersion at capture time.
	Version int `json:"version"`
	// Width is the window width in cycles.
	Width uint64 `json:"width"`
	// Dropped counts windows evicted by the MaxWindows bound.
	Dropped uint64 `json:"dropped,omitempty"`
	// Windows is the timeline, oldest first.
	Windows []Window `json:"windows"`
}

// LPMR1Series extracts the per-window LPMR1 values (a convenience for
// plots and diffs).
func (s Series) LPMR1Series() []float64 {
	out := make([]float64, len(s.Windows))
	for i, w := range s.Windows {
		out[i] = w.Derived.LPMR1
	}
	return out
}

// ProbeValue is one named probe's value in a window.
type ProbeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// CPUSample is one core's counter deltas over a window.
type CPUSample struct {
	// Instructions, MemInstructions, Cycles are retirements, retired
	// memory ops, and core-active ticks in the window.
	Instructions    uint64 `json:"instructions"`
	MemInstructions uint64 `json:"mem_instructions"`
	Cycles          uint64 `json:"cycles"`
	// StallCycles / MemStallCycles / EmptyCycles mirror cpu.Stats over
	// the window.
	StallCycles    uint64 `json:"stall_cycles"`
	MemStallCycles uint64 `json:"mem_stall_cycles"`
	EmptyCycles    uint64 `json:"empty_cycles"`
	// MemActiveCycles / OverlapCycles feed the per-window overlap ratio.
	MemActiveCycles uint64 `json:"mem_active_cycles"`
	OverlapCycles   uint64 `json:"overlap_cycles"`
	// ROBOccupancySum accumulates per-cycle ROB occupancy (divide by the
	// window width for the mean); IssueStalls counts LSQ-full plus
	// rejected-access events.
	ROBOccupancySum uint64 `json:"rob_occupancy_sum"`
	IssueStalls     uint64 `json:"issue_stalls"`
	// IPC is instructions per window cycle.
	IPC float64 `json:"ipc"`
}

// CacheSample is one cache level's deltas over a window. Params carries
// the raw analyzer counters the per-window C-AMAT parameters (H, pMR,
// pAMP, C_H, C_M) derive from; Level is the stable instance label
// ("l1.0", "l2", "l3").
type CacheSample struct {
	Level  string          `json:"level"`
	Params analyzer.Params `json:"params"`
	// Hits/Misses/PrimaryMisses/MSHRWaits/Rejected are event-counter
	// deltas from cache.Stats.
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	PrimaryMisses uint64 `json:"primary_misses"`
	MSHRWaits     uint64 `json:"mshr_waits"`
	Rejected      uint64 `json:"rejected"`
	// MSHROccupancySum accumulates per-cycle outstanding-miss counts
	// (port/bank pressure shows up in Params' hit-phase concurrency).
	MSHROccupancySum uint64 `json:"mshr_occupancy_sum"`
}

// DRAMSample is the memory controller's deltas over a window.
type DRAMSample struct {
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
	Rejected     uint64 `json:"rejected"`
	// ActiveCycles and LatencySum mirror dram.Stats over the window.
	ActiveCycles uint64 `json:"active_cycles"`
	LatencySum   uint64 `json:"latency_sum"`
	// BusBusyCycles accumulates, per window cycle, the number of channel
	// buses mid-burst; QueueOccupancySum the queued-request population.
	BusBusyCycles     uint64 `json:"bus_busy_cycles"`
	QueueOccupancySum uint64 `json:"queue_occupancy_sum"`
}

// NoCSample is the interconnect's deltas over a window (nil when the
// chip has no NoC).
type NoCSample struct {
	Requests      uint64 `json:"requests"`
	Responses     uint64 `json:"responses"`
	Rejected      uint64 `json:"rejected"`
	QueueCycleSum uint64 `json:"queue_cycle_sum"`
}

// Derived is the per-window model view the analyzer computes from the
// raw samples: windowed C-AMAT per layer and the three LPMRs (Eq. 9-11;
// zero when CPIexe was not configured).
type Derived struct {
	IPC    float64 `json:"ipc"`
	Fmem   float64 `json:"fmem"`
	CAMAT1 float64 `json:"camat1"`
	CAMAT2 float64 `json:"camat2"`
	CAMAT3 float64 `json:"camat3"`
	MR1    float64 `json:"mr1"`
	MR2    float64 `json:"mr2"`
	LPMR1  float64 `json:"lpmr1"`
	LPMR2  float64 `json:"lpmr2"`
	LPMR3  float64 `json:"lpmr3"`
}

// Window is one sampled interval: [Start, End) in chip cycles.
type Window struct {
	// Index is the window's ordinal (monotonic across drops).
	Index int `json:"index"`
	// Start and End bound the window: cycles Start..End-1 inclusive.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Phase is always -1; lpm-timeline/v1 documents carry it.
	Phase int `json:"phase"`

	// CPU holds one sample per core slot; Cache one per cache level
	// (l1.* first, then l2, then l3 when present).
	CPU   []CPUSample   `json:"cpu"`
	Cache []CacheSample `json:"cache"`
	DRAM  DRAMSample    `json:"dram"`
	NoC   *NoCSample    `json:"noc,omitempty"`

	// Stall holds one stall-attribution tree per core slot; every core
	// cycle in the window lands in exactly one bucket, so each tree's
	// Total equals Cycles().
	Stall []StallTree `json:"stall"`

	// Probes are the registered instantaneous gauges, sorted by name.
	Probes []ProbeValue `json:"probes,omitempty"`

	// Derived is the per-window model view.
	Derived Derived `json:"derived"`
}

// Cycles returns the window length.
func (w Window) Cycles() uint64 { return w.End - w.Start }

// AggregateStall sums the per-core stall trees.
func (w Window) AggregateStall() StallTree {
	var t StallTree
	for _, s := range w.Stall {
		t.Add(s)
	}
	return t
}

// Hierarchy returns the window's counters as the LPM request chain: the
// cores' retirements summed, the L1 (every private cache summed), L2 and
// optional L3 levels, and memory. Summed over contiguous windows it
// reproduces the counters the chip's Measure reads over the same span.
func (w Window) Hierarchy() analyzer.Hierarchy {
	var h analyzer.Hierarchy
	for _, c := range w.CPU {
		h.Instructions += c.Instructions
		h.MemInstructions += c.MemInstructions
	}
	h.Levels = make([]analyzer.Level, 2, 3)
	for _, cs := range w.Cache {
		l := analyzer.Level{Params: cs.Params, Primary: cs.PrimaryMisses}
		switch {
		case strings.HasPrefix(cs.Level, "l1"):
			h.Levels[0].Params = h.Levels[0].Add(l.Params)
			h.Levels[0].Primary += l.Primary
		case cs.Level == "l2":
			h.Levels[1] = l
		case cs.Level == "l3":
			h.Levels = append(h.Levels, l)
		}
	}
	h.MemServed = w.DRAM.Reads + w.DRAM.Writes
	h.MemActiveCycles = w.DRAM.ActiveCycles
	return h
}

// finalize computes the Derived view from the raw samples; the sampler
// calls it on close.
func (w *Window) finalize(cpiExe float64) {
	h := w.Hierarchy()
	d := Derived{
		Fmem:   h.Fmem(),
		CAMAT1: h.Levels[0].CAMAT(),
		CAMAT2: h.Levels[1].CAMAT(),
		CAMAT3: h.MemCAMAT(),
		MR1:    h.MR(0),
		MR2:    h.MR(1),
	}
	if cy := w.Cycles(); cy > 0 {
		d.IPC = float64(h.Instructions) / float64(cy)
	}
	d.LPMR1 = analyzer.LPMR(d.CAMAT1, d.Fmem, cpiExe)
	d.LPMR2 = analyzer.LPMR(d.CAMAT2, d.Fmem, cpiExe, d.MR1)
	d.LPMR3 = analyzer.LPMR(d.CAMAT3, d.Fmem, cpiExe, d.MR1, d.MR2)
	w.Derived = d
}
