package chip

import (
	"testing"

	"lpm/internal/obs/timeseries"
	"lpm/internal/sim/noc"
	"lpm/internal/trace"
)

// checkConservation asserts the stall-attribution conservation law on
// every window: per core, the bucket sum equals the window length; and
// the windows tile the sampled cycle range without gaps or overlaps.
func checkConservation(t *testing.T, ser timeseries.Series, cores int) {
	t.Helper()
	if len(ser.Windows) == 0 {
		t.Fatal("sampler produced no windows")
	}
	for i, w := range ser.Windows {
		if w.End <= w.Start {
			t.Fatalf("window %d empty: [%d,%d)", i, w.Start, w.End)
		}
		if i > 0 && w.Start != ser.Windows[i-1].End {
			t.Fatalf("window %d not contiguous: starts %d, previous ends %d",
				i, w.Start, ser.Windows[i-1].End)
		}
		if len(w.Stall) != cores {
			t.Fatalf("window %d has %d stall trees, want %d", i, len(w.Stall), cores)
		}
		for ci, st := range w.Stall {
			if got, want := st.Total(), w.Cycles(); got != want {
				t.Errorf("window %d core %d: stall buckets sum to %d, window is %d cycles (%+v)",
					i, ci, got, want, st)
			}
		}
	}
}

func TestTimeseriesStallConservationSingleCore(t *testing.T) {
	ch := New(SingleCore("429.mcf"))
	s := ch.EnableTimeseries(timeseries.Config{Width: 512, CPIexe: 0.5})
	start := ch.Now()
	cycles, done := ch.Run(20000, 2_000_000)
	if !done {
		t.Fatalf("did not retire in %d cycles", cycles)
	}
	ch.FlushTimeseries()
	ser := s.Series()
	checkConservation(t, ser, 1)
	if got := totalCycles(ser); got != ch.Now()-start {
		t.Fatalf("series covers %d cycles, run took %d", got, ch.Now()-start)
	}
	// A memory-bound workload must charge some cycles to memory stalls.
	agg := timeseries.StallTree{}
	var busy uint64
	for _, w := range ser.Windows {
		st := w.AggregateStall()
		agg.Add(st)
		busy += st.Busy
	}
	if agg.MemStall() == 0 {
		t.Error("429.mcf charged zero cycles to memory stall buckets")
	}
	if busy == 0 {
		t.Error("no busy cycles attributed")
	}
	// Per-window LPMR1 must be populated with CPIexe configured.
	anyLPMR := false
	for _, v := range ser.LPMR1Series() {
		if v > 0 {
			anyLPMR = true
		}
	}
	if !anyLPMR {
		t.Error("no window has LPMR1 > 0")
	}
}

func TestTimeseriesConservationWithNoCAndL3(t *testing.T) {
	cfg := NUCA16([]trace.Generator{
		trace.NewSynthetic(trace.MustProfile("429.mcf")),
		trace.NewSynthetic(trace.MustProfile("410.bwaves")),
		nil,
		trace.NewSynthetic(trace.MustProfile("444.namd")),
	})
	n := noc.Default(16)
	cfg.NoC = &n
	l3 := DefaultL2("L3", 8*MB)
	l3.Name = "L3"
	cfg.L3 = &l3
	ch := New(cfg)
	s := ch.EnableTimeseries(timeseries.Config{Width: 1000})
	start := ch.Now()
	ch.Run(4000, 1_000_000)
	ch.FlushTimeseries()
	ser := s.Series()
	checkConservation(t, ser, 16)
	if got := totalCycles(ser); got != ch.Now()-start {
		t.Fatalf("series covers %d cycles, run took %d", got, ch.Now()-start)
	}
	// The NoC sample must be present on a chip with a router.
	if ser.Windows[0].NoC == nil {
		t.Fatal("NoC sample missing on a NoC chip")
	}
	// Cache levels: 16 L1s + L2 + L3.
	if got := len(ser.Windows[0].Cache); got != 18 {
		t.Fatalf("window carries %d cache samples, want 18", got)
	}
}

func TestTimeseriesResetCountersRebasesWindows(t *testing.T) {
	ch := New(SingleCore("410.bwaves"))
	s := ch.EnableTimeseries(timeseries.Config{Width: 256})
	ch.RunUntilRetired(5000, 1_000_000)
	ch.ResetCounters()
	afterReset := ch.Now()
	ch.Run(10000, 1_000_000)
	ch.FlushTimeseries()
	ser := s.Series()
	checkConservation(t, ser, 1)
	// Windows closed after the reset must not see negative (wrapped)
	// deltas: instruction counts stay sane.
	for _, w := range ser.Windows {
		if w.Start < afterReset {
			continue
		}
		if w.CPU[0].Instructions > w.Cycles()*64 {
			t.Fatalf("window [%d,%d) reports absurd instruction delta %d (baseline not rebased?)",
				w.Start, w.End, w.CPU[0].Instructions)
		}
	}
}

func TestTimeseriesProbesPublished(t *testing.T) {
	ch := New(SingleCore("410.bwaves"))
	s := ch.EnableTimeseries(timeseries.Config{Width: 128})
	ch.Run(2000, 500_000)
	ch.FlushTimeseries()
	w := s.Series().Windows[0]
	want := map[string]bool{
		"cpu.0.rob_occupancy": false,
		"cpu.0.iw_occupancy":  false,
		"l1.0.mshr_occupancy": false,
		"l2.mshr_occupancy":   false,
		"dram.queue_depth":    false,
	}
	for _, p := range w.Probes {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("probe %q not sampled (got %+v)", name, w.Probes)
		}
	}
}

func TestEnableTimeseriesIdempotentAndNilOff(t *testing.T) {
	ch := New(SingleCore("410.bwaves"))
	if ch.ts != nil {
		t.Fatal("sampler present before EnableTimeseries")
	}
	ch.FlushTimeseries() // must be a no-op, not a panic
	s1 := ch.EnableTimeseries(timeseries.Config{Width: 64})
	s2 := ch.EnableTimeseries(timeseries.Config{Width: 1024})
	if s1 != s2 {
		t.Fatal("EnableTimeseries not idempotent")
	}
	if ch.ts.s != s1 {
		t.Fatal("the chip ticks a sampler EnableTimeseries did not return")
	}
}

// totalCycles is the cycles the series' windows cover.
func totalCycles(s timeseries.Series) uint64 {
	var n uint64
	for _, w := range s.Windows {
		n += w.Cycles()
	}
	return n
}
