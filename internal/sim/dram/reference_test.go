package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refDRAM is the controller as it stood while every cycle re-scanned it:
// pend is filtered whole each cycle, both FR-FCFS scans divide every
// queued block into its bank and row, and a channel whose banks are all
// busy is scanned again regardless. Kept verbatim (less the registry and
// tracer handles) as the oracle for TestDRAMMatchesScanReference.
type refDRAM struct {
	cfg      Config
	channels []channel
	queued   int
	busUntil uint64
	pend     []pending
	now      uint64
	st       Stats
}

func newRefDRAM(cfg Config) *refDRAM {
	d := &refDRAM{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return d
}

func (d *refDRAM) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	ch := &d.channels[block%uint64(d.cfg.Channels)]
	if len(ch.queue) >= d.cfg.QueueDepth {
		d.st.Rejected++
		return false
	}
	ch.queue = append(ch.queue, request{block: block, write: write, src: src, done: done, at: cycle})
	d.queued++
	return true
}

func (d *refDRAM) Tick(cycle uint64) {
	d.now = cycle
	if d.queued == 0 && len(d.pend) == 0 && d.busUntil <= cycle {
		return
	}
	if len(d.pend) > 0 {
		keep := d.pend[:0]
		for _, p := range d.pend {
			if p.at <= cycle {
				if p.done != nil {
					p.done(cycle)
				}
			} else {
				keep = append(keep, p)
			}
		}
		d.pend = keep
	}
	active := len(d.pend) > 0
	for ci := range d.channels {
		d.serviceChannel(&d.channels[ci])
		if d.channels[ci].busUntil > cycle {
			d.st.BusBusyCycles++
		}
	}
	if active || d.queued > 0 {
		d.st.ActiveCycles++
	}
}

func (d *refDRAM) rowOf(block uint64) uint64 { return block / d.cfg.RowBlocks }

func (d *refDRAM) bankOf(block uint64) int {
	return int((block / uint64(d.cfg.Channels)) % uint64(d.cfg.BanksPerChannel))
}

func (d *refDRAM) serviceChannel(ch *channel) {
	if len(ch.queue) == 0 {
		return
	}
	pick := -1
	if d.cfg.Scheduler == FRFCFS {
		for i, r := range ch.queue {
			b := &ch.banks[d.bankOf(r.block)]
			if b.busyUntil <= d.now && b.rowValid && b.openRow == d.rowOf(r.block) {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		for i, r := range ch.queue {
			if ch.banks[d.bankOf(r.block)].busyUntil <= d.now {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	r := ch.queue[pick]
	ch.queue = append(ch.queue[:pick], ch.queue[pick+1:]...)
	d.queued--

	b := &ch.banks[d.bankOf(r.block)]
	row := d.rowOf(r.block)
	var access int
	switch {
	case b.rowValid && b.openRow == row:
		d.st.RowHits++
		access = d.cfg.TCL
	case !b.rowValid:
		d.st.RowMisses++
		access = d.cfg.TRCD + d.cfg.TCL
	default:
		d.st.RowConflicts++
		access = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL
	}
	b.openRow, b.rowValid = row, true

	ready := d.now + uint64(access)
	if ch.busUntil > ready {
		ready = ch.busUntil
	}
	ready += uint64(d.cfg.TBurst)
	ch.busUntil = ready
	b.busyUntil = ready
	if ready > d.busUntil {
		d.busUntil = ready
	}

	if r.done == nil {
		d.st.Writes++
		return
	}
	d.st.Reads++
	d.st.LatencySum += ready - r.at
	d.pend = append(d.pend, pending{done: r.done, at: ready})
}

func (d *refDRAM) NextEvent() uint64 {
	ev := ^uint64(0)
	for i := range d.pend {
		if d.pend[i].at < ev {
			ev = d.pend[i].at
		}
	}
	return ev
}

// TestDRAMMatchesScanReference drives the controller and the scan-based
// reference with the same seeded random request streams — FR-FCFS and
// FCFS, one to eight banks, one to four channels, shallow and deep
// queues — and requires the same (cycle, request) completion sequence,
// and the same Stats, occupancy probes and NextEvent after every cycle.
func TestDRAMMatchesScanReference(t *testing.T) {
	for _, sched := range []Sched{FRFCFS, FCFS} {
		for banks := 1; banks <= 8; banks++ {
			sched, banks := sched, banks
			t.Run(fmt.Sprintf("%v-%dbanks", sched, banks), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					cfg := refConfig(sched, banks, 1+int(seed)%4, []int{2, 6, 32}[int(seed)%3])
					compareWithReference(t, cfg, seed, everyChannel(cfg))
				}
			})
		}
	}
}

// TestDRAMMatchesScanReferenceWide runs the same comparison at the
// NUCAMem width (8 channels) and at the width of the live-channel mask
// (64), with traffic confined to a few channels — always including the
// highest — so most channels stay idle while the busy ones keep their
// buses occupied, a third of them by writebacks that schedule no
// completion. A live set that forgets a channel whose bus is still
// draining shows as a BusBusyCycles difference in the cycle it happens.
func TestDRAMMatchesScanReferenceWide(t *testing.T) {
	for _, sched := range []Sched{FRFCFS, FCFS} {
		for _, channels := range []int{8, 64} {
			sched, channels := sched, channels
			t.Run(fmt.Sprintf("%v-%dch", sched, channels), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					cfg := refConfig(sched, 1+int(seed)%4, channels, []int{2, 6, 32}[int(seed)%3])
					compareWithReference(t, cfg, seed, someChannels(cfg, rand.New(rand.NewSource(-seed))))
				}
			})
		}
	}
}

// refConfig is the reference tests' controller: short rows and short,
// distinct timings, so row hits, conflicts and busy banks all occur.
func refConfig(sched Sched, banks, channels, depth int) Config {
	cfg := DDR3("ref")
	cfg.Scheduler = sched
	cfg.BanksPerChannel = banks
	cfg.Channels = channels
	cfg.QueueDepth = depth
	cfg.RowBlocks = 8
	cfg.TCL, cfg.TRCD, cfg.TRP, cfg.TBurst = 5, 7, 6, 3
	return cfg
}

// traffic draws one request's block and whether it is a demand fetch.
type traffic func(rng *rand.Rand) (block uint64, fetch bool)

// everyChannel spreads requests over every channel, a quarter of them
// writebacks, over a few rows per bank.
func everyChannel(cfg Config) traffic {
	return func(rng *rand.Rand) (uint64, bool) {
		block := uint64(rng.Intn(8*cfg.Channels*cfg.BanksPerChannel)) + uint64(rng.Intn(3))*4096
		return block, rng.Intn(4) != 0
	}
}

// someChannels confines requests to one to three channels, the last
// always cfg.Channels-1; the first hot channel takes only writebacks,
// so its bus is busy while nothing of it is pending.
func someChannels(cfg Config, pick *rand.Rand) traffic {
	hot := []uint64{uint64(cfg.Channels - 1)}
	for n := pick.Intn(3); n > 0; n-- {
		hot = append(hot, uint64(pick.Intn(cfg.Channels)))
	}
	c := uint64(cfg.Channels)
	return func(rng *rand.Rand) (uint64, bool) {
		i := rng.Intn(len(hot))
		block := (uint64(rng.Intn(8*cfg.BanksPerChannel))+uint64(rng.Intn(3))*4096)*c + hot[i]
		return block, i != 0 && rng.Intn(4) != 0
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64, draw traffic) {
	t.Helper()
	got, ref := New(cfg), newRefDRAM(cfg)
	request := [2]func(uint64, int, uint64, bool, func(uint64)) bool{got.Request, ref.Request}
	var logs [2][]string

	rng := rand.New(rand.NewSource(seed))
	id, stalled := 0, false
	for cycle := uint64(1); cycle <= 8000; cycle++ {
		// Bursts over a few rows (so row hits, conflicts and busy banks
		// all occur) separated by idle stretches that drain the queues.
		if (cycle/300)%3 != 2 && cycle < 7000 {
			for k := rng.Intn(3); k > 0; k-- {
				block, fetch := draw(rng)
				id++
				var accepted [2]bool
				for i := range request {
					i, tag := i, id
					var done func(uint64)
					if fetch {
						done = func(cy uint64) { logs[i] = append(logs[i], fmt.Sprintf("%d: done #%d", cy, tag)) }
					}
					accepted[i] = request[i](cycle, 0, block, !fetch, done)
				}
				if accepted[0] != accepted[1] {
					t.Fatalf("seed %d cycle %d: request #%d accepted %v, reference %v", seed, cycle, id, accepted[0], accepted[1])
				}
			}
		}
		got.Tick(cycle)
		ref.Tick(cycle)
		if got.Stats() != ref.st {
			t.Fatalf("seed %d cycle %d: Stats diverged\n got %+v\nwant %+v", seed, cycle, got.Stats(), ref.st)
		}
		if got.QueuedRequests() != ref.queued || got.InFlight() != len(ref.pend) || got.NextEvent() != ref.NextEvent() {
			t.Fatalf("seed %d cycle %d: queued/in-flight/NextEvent = %d/%d/%d, reference %d/%d/%d", seed, cycle,
				got.QueuedRequests(), got.InFlight(), got.NextEvent(), ref.queued, len(ref.pend), ref.NextEvent())
		}
		for ci := range got.channels {
			stalled = stalled || got.channels[ci].stallUntil > cycle
		}
		if cycle%2500 == 0 {
			got.ResetCounters()
			ref.st = Stats{}
		}
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("seed %d: completion sequences differ (%d vs %d events)", seed, len(logs[0]), len(logs[1]))
	}
	if got.Busy() || got.live != 0 {
		t.Fatalf("seed %d: controller still busy after the stream drained (live set %#x)", seed, got.live)
	}
	if !stalled || len(logs[0]) < 200 {
		t.Fatalf("seed %d: weak stream: stalled=%v completions=%d", seed, stalled, len(logs[0]))
	}
}

// TestDRAMFastForwardMatchesScanReference replays seeded streams on the
// reference, stepped every cycle, and on the controller, which jumps
// with AdvanceCycles whenever it is quiescent: up to the cycle before
// its next completion or the stream's next request, as the chip's
// fast-forward does. Completions, Stats and NextEvent must agree at
// every cycle the controller ticks. Writebacks keep buses busy with no
// completion scheduled, so jumps span buses still draining after their
// channel's queue emptied — the stream must produce such jumps.
func TestDRAMFastForwardMatchesScanReference(t *testing.T) {
	for _, channels := range []int{2, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := refConfig(FRFCFS, 1+int(seed)%4, channels, 6)
			draw := someChannels(cfg, rand.New(rand.NewSource(-seed)))
			if channels == 2 {
				draw = everyChannel(cfg)
			}
			compareFastForward(t, cfg, seed, draw)
		}
	}
}

func compareFastForward(t *testing.T, cfg Config, seed int64, draw traffic) {
	t.Helper()
	// The stream, fixed up front so the jumping side knows when the
	// next request comes: sparse bursts, so quiescent stretches occur.
	type req struct {
		id    int
		block uint64
		fetch bool
	}
	const last = 8000
	rng := rand.New(rand.NewSource(seed))
	stream := make(map[uint64][]req)
	id := 0
	for cycle := uint64(1); cycle < 7000; cycle++ {
		if (cycle/200)%2 == 0 && rng.Intn(6) == 0 {
			block, fetch := draw(rng)
			id++
			stream[cycle] = append(stream[cycle], req{id, block, fetch})
		}
	}
	nextReq := func(after uint64) uint64 {
		for c := after + 1; c < 7000; c++ {
			if len(stream[c]) > 0 {
				return c
			}
		}
		return last + 1
	}

	got, ref := New(cfg), newRefDRAM(cfg)
	// A refused request is dropped, and logged so that both sides must
	// refuse the same ones.
	var logs [2][]string
	issue := func(i int, cycle uint64, r func(uint64, int, uint64, bool, func(uint64)) bool) {
		for _, q := range stream[cycle] {
			var done func(uint64)
			if q.fetch {
				tag := q.id
				done = func(cy uint64) { logs[i] = append(logs[i], fmt.Sprintf("%d: done #%d", cy, tag)) }
			}
			if !r(cycle, 0, q.block, !q.fetch, done) {
				logs[i] = append(logs[i], fmt.Sprintf("%d: refused #%d", cycle, q.id))
			}
		}
	}
	jumps, draining := 0, 0
	for cycle := uint64(1); cycle <= last; cycle++ {
		issue(1, cycle, ref.Request)
		ref.Tick(cycle)
		if got.now >= cycle {
			continue // inside a jump
		}
		issue(0, cycle, got.Request)
		got.Tick(cycle)
		if got.Stats() != ref.st || got.NextEvent() != ref.NextEvent() {
			t.Fatalf("seed %d cycle %d: Stats/NextEvent diverged\n got %+v %d\nwant %+v %d",
				seed, cycle, got.Stats(), got.NextEvent(), ref.st, ref.NextEvent())
		}
		if !got.Quiescent(cycle) {
			continue
		}
		to := nextReq(cycle)
		if e := got.NextEvent(); e < to {
			to = e
		}
		if to > last+1 {
			to = last + 1
		}
		if to <= cycle+1 {
			continue
		}
		jumps++
		for ci := range got.channels {
			if ch := &got.channels[ci]; len(ch.queue) == 0 && ch.busUntil > cycle+1 && ch.busUntil < to {
				draining++
				break
			}
		}
		got.AdvanceCycles(cycle, to-cycle-1)
	}
	if got.Stats() != ref.st {
		t.Fatalf("seed %d: final Stats diverged\n got %+v\nwant %+v", seed, got.Stats(), ref.st)
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("seed %d: completion sequences differ (%d vs %d events)", seed, len(logs[0]), len(logs[1]))
	}
	if got.Busy() || got.live != 0 {
		t.Fatalf("seed %d: controller still busy after the stream drained (live set %#x)", seed, got.live)
	}
	if jumps < 50 || draining < 5 || len(logs[0]) < 100 {
		t.Fatalf("seed %d: weak stream: %d jumps, %d over a draining bus, %d completions", seed, jumps, draining, len(logs[0]))
	}
}
