package dram

import (
	"math/rand"
	"testing"
)

func cfg() Config {
	c := DDR3("mem-test")
	c.Channels = 1
	c.BanksPerChannel = 2
	return c
}

// run drives the DRAM until pred or budget cycles elapse.
func run(d *DRAM, now *uint64, pred func() bool, budget int) bool {
	for i := 0; i < budget; i++ {
		if pred() {
			return true
		}
		*now++
		d.Tick(*now)
	}
	return pred()
}

func TestConfigValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	widest := cfg()
	widest.Channels, widest.BanksPerChannel, widest.TCL = 64, 1024, 1<<16
	if err := widest.Validate(); err != nil {
		t.Fatalf("the widest accepted config: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 65 }, // wider than the live-channel mask
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.BanksPerChannel = 1025 },
		func(c *Config) { c.RowBlocks = 0 },
		func(c *Config) { c.TCL = 0 },
		func(c *Config) { c.TBurst = -1 },
		func(c *Config) { c.TRP = 1<<16 + 1 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.Scheduler = FRFCFS + 1 },
	}
	for i, mut := range bads {
		c := cfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestReadCompletesWithClosedRowLatency(t *testing.T) {
	d := New(cfg())
	var now uint64
	var doneAt uint64
	d.Request(now, 0, 0, false, func(c uint64) { doneAt = c })
	if !run(d, &now, func() bool { return doneAt != 0 }, 1000) {
		t.Fatal("read never completed")
	}
	want := uint64(cfg().TRCD + cfg().TCL + cfg().TBurst)
	if doneAt < want || doneAt > want+2 {
		t.Fatalf("closed-row read latency %d, want ~%d", doneAt, want)
	}
	if st := d.Stats(); st.RowMisses != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRowBufferHitFaster(t *testing.T) {
	d := New(cfg())
	var now uint64
	var t1, t2 uint64
	d.Request(now, 0, 0, false, func(c uint64) { t1 = c })
	run(d, &now, func() bool { return t1 != 0 }, 1000)
	issueAt := now
	d.Request(now, 0, 2, false, func(c uint64) { t2 = c }) // same bank 0, same row 0
	run(d, &now, func() bool { return t2 != 0 }, 1000)
	lat2 := t2 - issueAt
	want := uint64(cfg().TCL + cfg().TBurst)
	if lat2 < want || lat2 > want+2 {
		t.Fatalf("row-hit latency %d, want ~%d", lat2, want)
	}
	if st := d.Stats(); st.RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", st.RowHits)
	}
}

func TestRowConflictSlower(t *testing.T) {
	d := New(cfg())
	var now uint64
	var t1, t2 uint64
	d.Request(now, 0, 0, false, func(c uint64) { t1 = c })
	run(d, &now, func() bool { return t1 != 0 }, 1000)
	issueAt := now
	// Same bank (channel 0, bank 0: block multiple of 2 with 1 channel,
	// 2 banks), different row: block 256 is row 2, bank 0.
	d.Request(now, 0, 256, false, func(c uint64) { t2 = c })
	run(d, &now, func() bool { return t2 != 0 }, 1000)
	lat2 := t2 - issueAt
	want := uint64(cfg().TRP + cfg().TRCD + cfg().TCL + cfg().TBurst)
	if lat2 < want || lat2 > want+2 {
		t.Fatalf("row-conflict latency %d, want ~%d", lat2, want)
	}
	if st := d.Stats(); st.RowConflicts != 1 {
		t.Fatalf("row conflicts = %d, want 1", st.RowConflicts)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	elapsed := func(blockB uint64) uint64 {
		d := New(cfg())
		var now uint64
		var done int
		d.Request(now, 0, 0, false, func(uint64) { done++ })
		d.Request(now, 0, blockB, false, func(uint64) { done++ })
		run(d, &now, func() bool { return done == 2 }, 5000)
		return now
	}
	diffBank := elapsed(1<<20 + 1) // odd block -> bank 1, far row
	sameBank := elapsed(1 << 20)   // even block -> bank 0, far row (conflict)
	if diffBank >= sameBank {
		t.Fatalf("bank parallelism not faster: diff=%d same=%d", diffBank, sameBank)
	}
}

func TestChannelQueueBackpressure(t *testing.T) {
	c := cfg()
	c.QueueDepth = 2
	d := New(c)
	ok := 0
	for i := 0; i < 5; i++ {
		if d.Request(0, 0, uint64(i*2), false, func(uint64) {}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d, want 2", ok)
	}
	if st := d.Stats(); st.Rejected != 3 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
}

func TestWritesCompleteSilently(t *testing.T) {
	d := New(cfg())
	var now uint64
	d.Request(now, 0, 0, true, nil)
	run(d, &now, func() bool { return !d.Busy() }, 1000)
	if st := d.Stats(); st.Writes != 1 || st.Reads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	c := cfg()
	c.Scheduler = FRFCFS
	d := New(c)
	var now uint64
	// Open row 0 on bank 0.
	var warm uint64
	d.Request(now, 0, 0, false, func(cy uint64) { warm = cy })
	run(d, &now, func() bool { return warm != 0 }, 1000)
	// Queue a row-conflict first, then a row-hit; FR-FCFS should finish
	// the row-hit first.
	var conflictAt, hitAt uint64
	d.Request(now, 0, 256, false, func(cy uint64) { conflictAt = cy }) // bank 0, other row
	d.Request(now, 0, 2, false, func(cy uint64) { hitAt = cy })        // bank 0, row 0
	run(d, &now, func() bool { return conflictAt != 0 && hitAt != 0 }, 5000)
	if hitAt >= conflictAt {
		t.Fatalf("FR-FCFS served conflict (%d) before row hit (%d)", conflictAt, hitAt)
	}

	// FCFS serves in order.
	c.Scheduler = FCFS
	d2 := New(c)
	now = 0
	warm = 0
	d2.Request(now, 0, 0, false, func(cy uint64) { warm = cy })
	run(d2, &now, func() bool { return warm != 0 }, 1000)
	conflictAt, hitAt = 0, 0
	d2.Request(now, 0, 256, false, func(cy uint64) { conflictAt = cy })
	d2.Request(now, 0, 2, false, func(cy uint64) { hitAt = cy })
	run(d2, &now, func() bool { return conflictAt != 0 && hitAt != 0 }, 5000)
	if hitAt <= conflictAt {
		t.Fatalf("FCFS reordered: conflict at %d, hit at %d", conflictAt, hitAt)
	}
}

func TestContentionRaisesLatency(t *testing.T) {
	// Average read latency under a burst of random requests must exceed
	// the uncontended closed-row latency: queueing is modelled.
	d := New(cfg())
	var now uint64
	var done int
	n := 16
	for i := 0; i < n; i++ {
		d.Request(now, 0, uint64(i*997)%4096, false, func(uint64) { done++ })
	}
	run(d, &now, func() bool { return done == n }, 20000)
	uncontended := float64(cfg().TRCD + cfg().TCL + cfg().TBurst)
	if avg := d.Stats().AvgReadLatency(); avg <= uncontended {
		t.Fatalf("avg latency %.1f under burst, want > %.1f", avg, uncontended)
	}
}

func TestResetCounters(t *testing.T) {
	d := New(cfg())
	var now uint64
	var fin uint64
	d.Request(now, 0, 0, false, func(cy uint64) { fin = cy })
	run(d, &now, func() bool { return fin != 0 }, 1000)
	d.ResetCounters()
	if st := d.Stats(); st.Reads != 0 || st.RowMisses != 0 {
		t.Fatal("counters survive reset")
	}
}

func TestSchedString(t *testing.T) {
	if FCFS.String() != "FCFS" || FRFCFS.String() != "FR-FCFS" {
		t.Fatal("bad scheduler names")
	}
	if Sched(7).String() == "" {
		t.Fatal("unknown scheduler empty")
	}
}

func TestFixedMemoryLatency(t *testing.T) {
	f := &Fixed{Latency: 7}
	var doneAt uint64
	f.Request(3, 0, 0, false, func(c uint64) { doneAt = c })
	for cy := uint64(4); cy <= 20 && doneAt == 0; cy++ {
		f.Tick(cy)
	}
	if doneAt != 10 {
		t.Fatalf("fixed latency done at %d, want 10", doneAt)
	}
}

func TestFixedBandwidthLimit(t *testing.T) {
	f := &Fixed{Latency: 1, PerCycle: 2}
	ok := 0
	for i := 0; i < 5; i++ {
		if f.Request(1, 0, uint64(i), false, func(uint64) {}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d in one cycle, want 2", ok)
	}
	// Next cycle the window resets.
	if !f.Request(2, 0, 9, false, func(uint64) {}) {
		t.Fatal("bandwidth window did not reset")
	}
}

func TestDDR3DefaultsValid(t *testing.T) {
	c := DDR3("x")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDRAMIdleTick times the tick of a controller with nothing
// queued, in service or on a bus — most cycles of a cache-resident
// program. It must not depend on the channel count.
func BenchmarkDRAMIdleTick(b *testing.B) {
	cfg := DDR3("mem")
	cfg.Channels = 8
	d := New(cfg)
	// One serviced read, then drain, so the device state is a used one.
	d.Request(1, 0, 42, false, func(uint64) {})
	cy := uint64(1)
	for ; d.Busy() || cy < 200; cy++ {
		d.Tick(cy)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cy++
		d.Tick(cy)
	}
}

// TestIdleTickKeepsBusAccounting: a writeback completes silently — no
// completion stays scheduled — yet its burst holds the bus, so the idle
// early-out of Tick must wait for the bus as well as the queues. The
// counters of a multi-channel controller must match ticking every
// channel every cycle, which the one-request arithmetic below spells out.
func TestIdleTickKeepsBusAccounting(t *testing.T) {
	c := DDR3("mem-test")
	c.Channels = 8
	d := New(c)
	if !d.Request(1, 0, 5, true, nil) {
		t.Fatal("writeback rejected")
	}
	if d.QueuedRequests() != 1 || !d.Busy() {
		t.Fatalf("queued=%d busy=%v after one request", d.QueuedRequests(), d.Busy())
	}
	for cy := uint64(1); cy <= 300; cy++ {
		d.Tick(cy)
	}
	// Serviced at cycle 1 on a closed row: the bus is held for
	// TRCD+TCL+TBurst cycles from then, and the controller was active
	// (a request queued at the start of the cycle) for none after it.
	st := d.Stats()
	if want := uint64(c.TRCD + c.TCL + c.TBurst); st.BusBusyCycles != want {
		t.Fatalf("BusBusyCycles = %d, want %d", st.BusBusyCycles, want)
	}
	if st.Writes != 1 || st.ActiveCycles != 0 || d.QueuedRequests() != 0 || d.Busy() {
		t.Fatalf("after drain: %+v queued=%d busy=%v", st, d.QueuedRequests(), d.Busy())
	}
}

// FuzzDRAMConfig: Validate never panics, and a controller built from
// any config it accepts takes a seeded random request stream, ticks and
// drains — stepping, and jumping quiescent stretches as the chip's
// fast-forward does — without a panic, delivering every accepted fetch
// once, within the cycles a single bank would need to serve every
// request in turn.
func FuzzDRAMConfig(f *testing.F) {
	add := func(c Config, seed int64) {
		f.Add(c.Channels, c.BanksPerChannel, c.RowBlocks, c.TCL, c.TRCD, c.TRP, c.TBurst, c.QueueDepth, uint8(c.Scheduler), seed)
	}
	add(DDR3("ddr3"), 1)
	nuca := DDR3("nuca") // chip.NUCAMem's shape
	nuca.Channels, nuca.QueueDepth = 8, 64
	add(nuca, 2)
	add(Config{Channels: 64, BanksPerChannel: 1, RowBlocks: 1, TCL: 1, TRCD: 1, TRP: 1, TBurst: 1, QueueDepth: 1}, 3)
	add(Config{Channels: 65, BanksPerChannel: 1, RowBlocks: 1, TCL: 1, TRCD: 1, TRP: 1, TBurst: 1, QueueDepth: 1}, 4)
	f.Fuzz(func(t *testing.T, channels, banks int, rowBlocks uint64, tcl, trcd, trp, tburst, depth int, sched uint8, seed int64) {
		cfg := Config{Name: "fuzz", Channels: channels, BanksPerChannel: banks, RowBlocks: rowBlocks,
			TCL: tcl, TRCD: trcd, TRP: trp, TBurst: tburst, QueueDepth: depth, Scheduler: Sched(sched)}
		if cfg.Validate() != nil {
			return
		}
		d := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		accepted, delivered := 0, 0
		var now uint64 // the last cycle ticked
		for now < 64 {
			now++
			for k := rng.Intn(3); k > 0; k-- {
				block := rng.Uint64() >> uint(rng.Intn(64))
				var done func(uint64)
				if rng.Intn(4) != 0 {
					done = func(uint64) { delivered++ }
				}
				if d.Request(now, 0, block, done == nil, done) {
					accepted++
				}
			}
			d.Tick(now)
		}
		limit := now + uint64(accepted+1)*uint64(cfg.TRP+cfg.TRCD+cfg.TCL+cfg.TBurst)
		for d.Busy() {
			if now > limit {
				t.Fatalf("%+v: %d requests still queued, %d in flight at cycle %d", cfg, d.QueuedRequests(), d.InFlight(), now)
			}
			if e := d.NextEvent(); d.Quiescent(now) && e > now+1 {
				d.AdvanceCycles(now, e-now-1)
				now = e - 1
			}
			now++
			d.Tick(now)
		}
		if st := d.Stats(); delivered != int(st.Reads) || st.Reads+st.Writes != uint64(accepted) {
			t.Fatalf("%+v: %d accepted, %d delivered, stats %+v", cfg, accepted, delivered, st)
		}
	})
}
