package chip

import (
	"runtime"
	"testing"

	"lpm/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := SingleCore("401.bzip2")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Cores = nil
	if err := bad.Validate(); err == nil {
		t.Error("no cores accepted")
	}
	bad = SingleCore("401.bzip2")
	bad.Cores[0].L1.Ports = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad L1 accepted")
	}
	bad = SingleCore("401.bzip2")
	bad.L2.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad L2 accepted")
	}
	bad = SingleCore("401.bzip2")
	bad.Mem.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad mem accepted")
	}
}

func TestSingleCoreRunRetires(t *testing.T) {
	ch := New(SingleCore("401.bzip2"))
	cycles, done := ch.Run(20000, 2_000_000)
	if !done {
		t.Fatalf("did not retire 20k instructions in %d cycles", cycles)
	}
	r := ch.Snapshot()
	if r.Cores[0].CPU.Instructions < 20000 {
		t.Fatalf("retired %d", r.Cores[0].CPU.Instructions)
	}
	if r.Cores[0].Name != "401.bzip2" {
		t.Fatalf("name = %q", r.Cores[0].Name)
	}
	// The hierarchy saw traffic at every level for a 24 MB-footprint app.
	if r.Cores[0].L1.Completed == 0 {
		t.Fatal("L1 saw no accesses")
	}
	if r.L2.Completed == 0 {
		t.Fatal("L2 saw no accesses")
	}
	if r.Mem.Reads == 0 {
		t.Fatal("memory saw no reads")
	}
}

func TestDrainLeavesNothingInFlight(t *testing.T) {
	ch := New(SingleCore("429.mcf"))
	ch.Run(5000, 5_000_000)
	if ch.Busy() {
		t.Fatal("chip busy after Run returned")
	}
	p := ch.Snapshot().Cores[0].L1
	if p.Accesses != p.Completed {
		t.Fatalf("L1 accesses %d != completed %d after drain", p.Accesses, p.Completed)
	}
}

func TestMissRatesOrdering(t *testing.T) {
	// bzip2 (3 KB hot set) must have a far lower L1 miss rate than mcf
	// (pointer chasing over 256 MB) on the same 32 KB L1.
	mr := func(profile string) float64 {
		ch := New(SingleCore(profile))
		ch.Run(30000, 5_000_000)
		return ch.Snapshot().Cores[0].L1.MR()
	}
	bzip, mcf := mr("401.bzip2"), mr("429.mcf")
	if bzip >= mcf {
		t.Fatalf("MR(bzip2)=%.4f not below MR(mcf)=%.4f", bzip, mcf)
	}
	if mcf < 0.05 {
		t.Fatalf("mcf miss rate %.4f suspiciously low", mcf)
	}
}

func TestCAMATEqualsInverseAPCOnRealRuns(t *testing.T) {
	for _, prof := range []string{"401.bzip2", "433.milc", "403.gcc"} {
		ch := New(SingleCore(prof))
		ch.Run(20000, 5_000_000)
		for _, layer := range []struct {
			name string
			p    interface{ CAMAT() float64 }
		}{} {
			_ = layer
		}
		l1 := ch.Snapshot().Cores[0].L1
		if l1.Completed == 0 {
			t.Fatalf("%s: no L1 traffic", prof)
		}
		camat, inv := l1.CAMAT(), 1/l1.APC()
		if diff := camat - inv; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: C-AMAT %.6f != 1/APC %.6f", prof, camat, inv)
		}
		l2 := ch.Snapshot().L2
		if l2.Completed > 0 {
			camat, inv = l2.CAMAT(), 1/l2.APC()
			if diff := camat - inv; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s L2: C-AMAT %.6f != 1/APC %.6f", prof, camat, inv)
			}
		}
	}
}

func TestLargerL1ReducesMissesForGcc(t *testing.T) {
	run := func(size uint64) float64 {
		cfg := SingleCore("403.gcc")
		cfg.Cores[0].L1 = DefaultL1("L1D-0", size)
		ch := New(cfg)
		ch.Run(30000, 5_000_000)
		return ch.Snapshot().Cores[0].L1.MR()
	}
	small, large := run(4*KB), run(64*KB)
	if large >= small {
		t.Fatalf("gcc: 64KB MR %.4f not below 4KB MR %.4f", large, small)
	}
}

func TestMilcInsensitiveToL1Size(t *testing.T) {
	run := func(size uint64) float64 {
		cfg := SingleCore("433.milc")
		cfg.Cores[0].L1 = DefaultL1("L1D-0", size)
		ch := New(cfg)
		ch.Run(30000, 5_000_000)
		return ch.Snapshot().Cores[0].CPU.IPC()
	}
	small, large := run(4*KB), run(64*KB)
	rel := (large - small) / small
	if rel > 0.10 || rel < -0.10 {
		t.Fatalf("milc IPC moved %.1f%% across L1 sizes, want ~flat", rel*100)
	}
}

func TestRunCyclesAdvancesClock(t *testing.T) {
	ch := New(SingleCore("401.bzip2"))
	ch.RunCycles(500)
	if ch.Now() != 500 {
		t.Fatalf("now = %d", ch.Now())
	}
}

func TestResetCountersMidRun(t *testing.T) {
	ch := New(SingleCore("401.bzip2"))
	ch.RunCycles(20000)
	ch.ResetCounters()
	r := ch.Snapshot()
	if r.Cores[0].CPU.Instructions != 0 {
		t.Fatal("core counters survive reset")
	}
	ch.RunCycles(20000)
	r = ch.Snapshot()
	if r.Cores[0].CPU.Instructions == 0 {
		t.Fatal("no progress after reset")
	}
	// Warm caches: the post-reset interval must not miss wildly more than
	// a cold start (generous slack: intervals sample different phases).
	cold := New(SingleCore("401.bzip2"))
	cold.RunCycles(20000)
	if warm, coldMR := r.Cores[0].L1.MR(), cold.Snapshot().Cores[0].L1.MR(); warm > 2*coldMR+0.02 {
		t.Fatalf("warm interval MR %.4f far above cold-start MR %.4f", warm, coldMR)
	}
}

func TestNUCA16Geometry(t *testing.T) {
	cfg := NUCA16(nil)
	if len(cfg.Cores) != 16 {
		t.Fatalf("cores = %d", len(cfg.Cores))
	}
	for i, slot := range cfg.Cores {
		want := NUCAGroupSizes[i/4]
		if slot.L1.Size != want {
			t.Errorf("core %d L1 size %d, want %d", i, slot.L1.Size, want)
		}
		if slot.Workload != nil {
			t.Errorf("core %d should be idle", i)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNUCA16PanicsOnTooManyWorkloads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NUCA16(make([]trace.Generator, 17))
}

func TestMultiprogramSharedL2Contention(t *testing.T) {
	// Run one core alone vs with 3 co-runners; shared-L2 pressure should
	// not raise its IPC.
	alone := NUCA16([]trace.Generator{trace.NewSynthetic(trace.MustProfile("403.gcc"))})
	chA := New(alone)
	chA.Run(15000, 10_000_000)
	ipcAlone := chA.Snapshot().Cores[0].CPU.IPC()

	gens := []trace.Generator{
		trace.NewSynthetic(trace.MustProfile("403.gcc")),
		trace.NewSynthetic(trace.MustProfile("429.mcf")),
		trace.NewSynthetic(trace.MustProfile("433.milc")),
		trace.NewSynthetic(trace.MustProfile("470.lbm")),
	}
	chB := New(NUCA16(gens))
	chB.Run(15000, 10_000_000)
	ipcShared := chB.Snapshot().Cores[0].CPU.IPC()

	if ipcShared > ipcAlone*1.05 {
		t.Fatalf("gcc IPC rose under contention: alone %.3f shared %.3f", ipcAlone, ipcShared)
	}
}

func TestMeasureCPIexe(t *testing.T) {
	gen := trace.NewSynthetic(trace.MustProfile("416.gamess"))
	cpi := MeasureCPIexe(DefaultCPU("c"), gen, 3, 20000)
	if cpi <= 0 || cpi > 4 {
		t.Fatalf("CPIexe = %.3f out of range", cpi)
	}
	// Perfect-cache CPI must not exceed the real-system CPI.
	ch := New(SingleCore("416.gamess"))
	ch.Run(20000, 5_000_000)
	real := ch.Snapshot().Cores[0].CPU.CPI()
	if cpi > real+0.05 {
		t.Fatalf("CPIexe %.3f above full-system CPI %.3f", cpi, real)
	}
}

// TestChipNewIsSmall guards the paged tag store: building the one-core
// NUCA chip allocates the 8 MB L2's page table, not its 2 MB of ways,
// so it stays under 64 KB (it reads 15.8 KB; eager allocation read
// 2.1 MB).
func TestChipNewIsSmall(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	cfg := NUCASingle(trace.NewSynthetic(trace.MustProfile("401.bzip2")), 32*KB)
	least := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		chipSink = New(cfg)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("chip.New(NUCASingle) allocates %d bytes, want under 64 KB", least)
	}
}

// chipSink keeps BenchmarkChipNew's chips live.
var chipSink *Chip

// BenchmarkChipNew measures building a chip, in B/op. The tag stores
// allocate only their page tables (the 8 MB NUCA L2's is 256 entries);
// pages come with the first fills.
func BenchmarkChipNew(b *testing.B) {
	gen := trace.NewSynthetic(trace.MustProfile("401.bzip2"))
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"NUCASingle", NUCASingle(gen, 32*KB)},
		{"NUCA16", NUCA16([]trace.Generator{gen})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chipSink = New(bc.cfg)
			}
		})
	}
}
