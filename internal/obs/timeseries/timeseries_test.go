package timeseries

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"lpm/internal/analyzer"
)

// fakeCollector returns a collector producing one-core windows whose
// counters scale with the window length, so derivations are
// checkable arithmetically.
func fakeCollector(ipcNum uint64) func(cycles uint64) Window {
	return func(cycles uint64) Window {
		instr := cycles * ipcNum / 10
		var tree StallTree
		tree.Busy = cycles // trivially conserved: every cycle busy
		return Window{
			CPU: []CPUSample{{
				Instructions:    instr,
				MemInstructions: instr / 2,
				Cycles:          cycles,
			}},
			Cache: []CacheSample{{
				Level: "l1.0",
				Params: analyzer.Params{
					Accesses: instr / 2, Completed: instr / 2,
					Misses: instr / 20, PureMisses: instr / 40,
					HitAccessCycles: instr, HitActiveCycles: instr / 2,
					PureAccessCycles: instr / 10, PureCycles: instr / 20,
					Cycles: cycles, ActiveCycles: cycles / 2,
				},
				Hits:   instr/2 - instr/20,
				Misses: instr / 20,
			}, {
				Level: "l2",
				Params: analyzer.Params{
					Accesses: instr / 20, Completed: instr / 20,
					HitAccessCycles: instr / 5, HitActiveCycles: instr / 20,
				},
			}},
			DRAM:  DRAMSample{Reads: instr / 100, RowHits: 3, RowMisses: 1},
			Stall: []StallTree{tree},
		}
	}
}

func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	s.Tick(1)
	s.Flush(2)
	s.SetCollector(nil)
	s.Track("x.probe", func() float64 { return 1 })
	if s.Windows() != 0 || s.Width() != 0 {
		t.Fatalf("nil sampler not inert: windows=%d width=%d", s.Windows(), s.Width())
	}
	if got := s.Series(); len(got.Windows) != 0 {
		t.Fatalf("nil sampler produced windows: %+v", got)
	}
}

func TestFixedWindows(t *testing.T) {
	s := New(Config{Width: 100, CPIexe: 0.5})
	s.SetCollector(fakeCollector(8))
	for cy := uint64(0); cy < 250; cy++ {
		s.Tick(cy)
	}
	s.Flush(249)
	ser := s.Series()
	if len(ser.Windows) != 3 {
		t.Fatalf("want 3 windows (100+100+50), got %d", len(ser.Windows))
	}
	wantBounds := [][2]uint64{{0, 100}, {100, 200}, {200, 250}}
	for i, w := range ser.Windows {
		if w.Start != wantBounds[i][0] || w.End != wantBounds[i][1] {
			t.Errorf("window %d bounds [%d,%d), want [%d,%d)", i, w.Start, w.End, wantBounds[i][0], wantBounds[i][1])
		}
		if w.Index != i {
			t.Errorf("window %d index = %d", i, w.Index)
		}
		if w.Phase != -1 {
			t.Errorf("fixed-mode window %d has phase %d, want -1", i, w.Phase)
		}
	}
	if got := totalCycles(ser); got != 250 {
		t.Fatalf("series covers %d cycles, want 250", got)
	}
	// IPC of 8/10 per collector arithmetic.
	if ipc := ser.Windows[0].Derived.IPC; math.Abs(ipc-0.8) > 1e-12 {
		t.Errorf("window IPC = %v, want 0.8", ipc)
	}
	// LPMR1 = CAMAT1 * fmem / CPIexe must be positive with CPIexe set.
	if l := ser.Windows[0].Derived.LPMR1; l <= 0 {
		t.Errorf("LPMR1 = %v, want > 0", l)
	}
	if got := len(ser.LPMR1Series()); got != 3 {
		t.Errorf("LPMR1Series length %d, want 3", got)
	}
}

func TestPartialWindowOnlyOnFlush(t *testing.T) {
	s := New(Config{Width: 100})
	s.SetCollector(fakeCollector(10))
	for cy := uint64(0); cy < 30; cy++ {
		s.Tick(cy)
	}
	if s.Windows() != 0 {
		t.Fatalf("partial window closed early: %d", s.Windows())
	}
	s.Flush(29)
	if s.Windows() != 1 {
		t.Fatalf("flush did not close partial window: %d", s.Windows())
	}
	w := s.Series().Windows[0]
	if w.Start != 0 || w.End != 30 {
		t.Fatalf("partial window bounds [%d,%d), want [0,30)", w.Start, w.End)
	}
	// Double flush must not emit an empty window.
	s.Flush(29)
	if s.Windows() != 1 {
		t.Fatalf("second flush added a window: %d", s.Windows())
	}
}

func TestMaxWindowsDropsOldest(t *testing.T) {
	s := New(Config{Width: 10, MaxWindows: 3})
	s.SetCollector(fakeCollector(10))
	for cy := uint64(0); cy < 100; cy++ { // 10 windows
		s.Tick(cy)
	}
	ser := s.Series()
	if len(ser.Windows) != 3 {
		t.Fatalf("stored %d windows, want 3", len(ser.Windows))
	}
	if ser.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", ser.Dropped)
	}
	if first := ser.Windows[0]; first.Index != 7 || first.Start != 70 {
		t.Fatalf("oldest kept window index=%d start=%d, want 7/70", first.Index, first.Start)
	}
}

func TestTrackProbesSampledSorted(t *testing.T) {
	s := New(Config{Width: 10})
	s.SetCollector(fakeCollector(10))
	occ := 5.0
	s.Track("cpu.0"+".rob_occupancy", func() float64 { return occ })
	s.Track("l1.0"+".mshr_occupancy", func() float64 { return 2 })
	for cy := uint64(0); cy < 10; cy++ {
		s.Tick(cy)
	}
	w := s.Series().Windows[0]
	if len(w.Probes) != 2 {
		t.Fatalf("probes = %+v, want 2", w.Probes)
	}
	if w.Probes[0].Name != "cpu.0.rob_occupancy" || w.Probes[1].Name != "l1.0.mshr_occupancy" {
		t.Fatalf("probes not sorted by name: %+v", w.Probes)
	}
	if w.Probes[0].Value != 5 {
		t.Fatalf("probe value = %v, want 5", w.Probes[0].Value)
	}
}

func TestOnWindowHookFires(t *testing.T) {
	var seen []Window
	s := New(Config{Width: 10, OnWindow: func(w *Window) { seen = append(seen, *w) }})
	s.SetCollector(fakeCollector(10))
	for cy := uint64(0); cy < 25; cy++ {
		s.Tick(cy)
	}
	s.Flush(24)
	if len(seen) != 3 {
		t.Fatalf("OnWindow fired %d times, want 3", len(seen))
	}
	if seen[2].End != 25 {
		t.Fatalf("last hooked window ends at %d, want 25", seen[2].End)
	}
}

// TestEmittedWindowsAreImmutable: OnWindow receivers keep the pointer
// they are handed (the control plane's hub history), so the sampler must
// never write a window after emitting it. Every emitted window must
// still conserve its stall cycles and encode to the same JSON after the
// run as when it was emitted, and the stored series is those windows.
func TestEmittedWindowsAreImmutable(t *testing.T) {
	type emitted struct {
		w    *Window
		json []byte
	}
	var seen []emitted
	behaviour := uint64(8)
	s := New(Config{Width: 50, CPIexe: 0.5, OnWindow: func(w *Window) {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		seen = append(seen, emitted{w, b})
	}})
	s.SetCollector(func(cycles uint64) Window {
		w := fakeCollector(behaviour)(cycles)
		w.NoC = &NoCSample{Requests: cycles, QueueCycleSum: 2 * cycles}
		return w
	})
	s.Track("x.probe", func() float64 { return float64(behaviour) })
	for cy := uint64(0); cy < 390; cy++ {
		if cy == 200 {
			behaviour = 1
		}
		s.Tick(cy)
	}
	s.Flush(389)

	if len(seen) != 8 || s.Windows() != 8 {
		t.Fatalf("emitted %d windows, stored %d, want 8 of 8", len(seen), s.Windows())
	}
	if first := seen[0].w; first.Start != 0 || first.End != 50 {
		t.Fatalf("first emitted window is [%d,%d) after the run, want [0,50)", first.Start, first.End)
	}
	ser := s.Series()
	for i, e := range seen {
		if got, want := e.w.AggregateStall().Total(), e.w.Cycles(); got != want {
			t.Errorf("window %d ([%d,%d)): stall total %d != %d cycles", i, e.w.Start, e.w.End, got, want)
		}
		if e.w.NoC.Requests != e.w.Cycles() {
			t.Errorf("window %d: NoC requests %d != %d cycles", i, e.w.NoC.Requests, e.w.Cycles())
		}
		b, err := json.Marshal(e.w)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(b) != string(e.json) {
			t.Errorf("window %d changed after it was emitted:\nthen %s\nnow  %s", i, e.json, b)
		}
		if w := ser.Windows[i]; w.Index != i || w.Start != e.w.Start || w.End != e.w.End {
			t.Errorf("stored window %d is [%d,%d) index %d, emitted [%d,%d)", i, w.Start, w.End, w.Index, e.w.Start, e.w.End)
		}
	}
}

// TestTrackSortsAtRegistration: probes registered out of order sample
// sorted by name.
func TestTrackSortsAtRegistration(t *testing.T) {
	s := New(Config{Width: 10})
	s.SetCollector(fakeCollector(10))
	for _, name := range []string{"noc.pending", "cpu.1.rob_occupancy", "l2.mshr_occupancy", "cpu.0.rob_occupancy"} {
		s.Track(name, func() float64 { return 0 })
	}
	for cy := uint64(0); cy < 10; cy++ {
		s.Tick(cy)
	}
	var got []string
	for _, p := range s.Series().Windows[0].Probes {
		got = append(got, p.Name)
	}
	want := []string{"cpu.0.rob_occupancy", "cpu.1.rob_occupancy", "l2.mshr_occupancy", "noc.pending"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("probe order %v, want %v", got, want)
	}
}

func TestStallTreeChargeAndConservation(t *testing.T) {
	var tree StallTree
	classes := []int{
		ClassBusy, ClassEmpty, ClassCompute, ClassL1Hit, ClassL1Miss,
		ClassL2Miss, ClassL3Miss, ClassNoC, ClassDRAMQueue, ClassDRAMService,
		ClassOther, 99, // unknown class lands in Other
	}
	for _, c := range classes {
		tree.Charge(c)
	}
	if got := tree.Total(); got != uint64(len(classes)) {
		t.Fatalf("Total = %d, want %d: charge leaks cycles", got, len(classes))
	}
	if tree.Other != 2 {
		t.Fatalf("Other = %d, want 2 (explicit + unknown class)", tree.Other)
	}
	if got := tree.MemStall(); got != 9 {
		t.Fatalf("MemStall = %d, want 9", got)
	}
	var sum StallTree
	sum.Add(tree)
	sum.Add(tree)
	if sum.Total() != 2*tree.Total() {
		t.Fatalf("Add not additive: %d vs %d", sum.Total(), 2*tree.Total())
	}
	// Nil receivers must be inert.
	var np *StallTree
	np.Charge(ClassBusy)
	np.Add(tree)
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := New(Config{Width: 20, CPIexe: 0.5})
	s.SetCollector(fakeCollector(10))
	for cy := uint64(0); cy < 60; cy++ {
		s.Tick(cy)
	}
	ser := s.Series()
	b, err := json.Marshal(ser)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Series
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Version != SeriesVersion || len(back.Windows) != len(ser.Windows) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Windows[0].Derived.LPMR1 != ser.Windows[0].Derived.LPMR1 {
		t.Fatalf("derived values drifted through JSON")
	}
}

// totalCycles is the cycles the series' windows cover.
func totalCycles(s Series) uint64 {
	var n uint64
	for _, w := range s.Windows {
		n += w.Cycles()
	}
	return n
}
