package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lpm/internal/sim/cache"
)

// refRouter is the router as it stood while every cycle re-scanned it:
// resp and inflight are filtered whole, a response closure is built for
// every hand-over attempt, the source queues are resliced and every
// occupancy probe walks them. Kept verbatim (less the registry handles)
// as the oracle for TestRouterMatchesScanReference.
type refRouter struct {
	cfg   Config
	lower cache.Lower

	queues   [][]refMessage
	arrival  [][]uint64
	inflight []refMessage
	resp     []refResponse
	rr       int

	st Stats
}

type refMessage struct {
	src     int
	block   uint64
	write   bool
	done    func(cycle uint64)
	readyAt uint64
}

type refResponse struct {
	done    func(cycle uint64)
	readyAt uint64
}

func newRefRouter(cfg Config) *refRouter {
	return &refRouter{cfg: cfg, queues: make([][]refMessage, cfg.Sources), arrival: make([][]uint64, cfg.Sources)}
}

func (r *refRouter) Pending() int {
	n := len(r.inflight) + len(r.resp)
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}

func (r *refRouter) queueFor(src int) int {
	if src < 0 {
		return 0
	}
	if src >= r.cfg.Sources {
		return r.cfg.Sources - 1
	}
	return src
}

func (r *refRouter) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	q := r.queueFor(src)
	if len(r.queues[q]) >= r.cfg.QueueDepth {
		r.st.Rejected++
		return false
	}
	r.queues[q] = append(r.queues[q], refMessage{src: src, block: block, write: write, done: done})
	r.arrival[q] = append(r.arrival[q], cycle)
	return true
}

func (r *refRouter) Tick(cycle uint64) {
	if len(r.resp) > 0 {
		keep := r.resp[:0]
		for _, p := range r.resp {
			if p.readyAt <= cycle {
				p.done(cycle)
			} else {
				keep = append(keep, p)
			}
		}
		r.resp = keep
	}

	if len(r.inflight) > 0 {
		keep := r.inflight[:0]
		for _, m := range r.inflight {
			if m.readyAt > cycle {
				keep = append(keep, m)
				continue
			}
			mm := m
			var done func(uint64)
			if m.done != nil {
				done = func(cy uint64) {
					r.resp = append(r.resp, refResponse{done: mm.done, readyAt: cy + uint64(r.cfg.Latency)})
					r.st.Responses++
				}
			}
			if !r.lower.Request(cycle, m.src, m.block, m.write, done) {
				keep = append(keep, m)
			}
		}
		r.inflight = keep
	}

	launched := 0
	for scanned := 0; scanned < r.cfg.Sources && launched < r.cfg.Bandwidth; {
		q := r.rr % r.cfg.Sources
		if len(r.queues[q]) == 0 {
			r.rr++
			scanned++
			continue
		}
		m := r.queues[q][0]
		r.queues[q] = r.queues[q][1:]
		waited := cycle - r.arrival[q][0]
		r.arrival[q] = r.arrival[q][1:]
		m.readyAt = cycle + uint64(r.cfg.Latency)
		r.inflight = append(r.inflight, m)
		r.st.Requests++
		r.st.QueueCycleSum += waited
		launched++
		r.rr++
		scanned = 0
	}
}

func (r *refRouter) Quiescent(now uint64) bool {
	for _, q := range r.queues {
		if len(q) > 0 {
			return false
		}
	}
	for i := range r.inflight {
		if r.inflight[i].readyAt <= now+1 {
			return false
		}
	}
	for i := range r.resp {
		if r.resp[i].readyAt <= now+1 {
			return false
		}
	}
	return true
}

func (r *refRouter) NextEvent() uint64 {
	ev := ^uint64(0)
	for i := range r.inflight {
		if r.inflight[i].readyAt < ev {
			ev = r.inflight[i].readyAt
		}
	}
	for i := range r.resp {
		if r.resp[i].readyAt < ev {
			ev = r.resp[i].readyAt
		}
	}
	return ev
}

// refLower is a seeded lower layer that refuses hand-overs at random —
// in bursts, so several due requests pile up refused at the head of
// inflight — and completes fetches after a random latency.
type refLower struct {
	rng      *rand.Rand
	refusing int // cycles of a refusal burst left
	pend     []refResponse
	log      []string
}

func (l *refLower) Request(cycle uint64, src int, block uint64, write bool, done func(uint64)) bool {
	if l.refusing > 0 || l.rng.Intn(3) == 0 {
		return false
	}
	l.log = append(l.log, fmt.Sprintf("%d: down src=%d block=%d write=%v fetch=%v", cycle, src, block, write, done != nil))
	if done != nil {
		l.pend = append(l.pend, refResponse{done, cycle + 1 + uint64(l.rng.Intn(25))})
	}
	return true
}

func (l *refLower) Tick(cycle uint64) {
	if l.refusing > 0 {
		l.refusing--
	} else if l.rng.Intn(50) == 0 {
		l.refusing = 1 + l.rng.Intn(12)
	}
	keep := l.pend[:0]
	for _, p := range l.pend {
		if p.readyAt <= cycle {
			p.done(cycle)
		} else {
			keep = append(keep, p)
		}
	}
	l.pend = keep
}

// sorted reports whether f's live messages are ordered by readyAt.
func sorted(f *fifo) bool {
	for i := f.head + 1; i < len(f.buf); i++ {
		if f.buf[i].readyAt < f.buf[i-1].readyAt {
			return false
		}
	}
	return true
}

// TestRouterMatchesScanReference drives the router and the scan-based
// reference with the same seeded random request streams over a lower
// layer that refuses at random, and requires the same (cycle, request)
// completion sequence, the same hand-over sequence, the same Stats and
// the same Busy/Pending/Quiescent/NextEvent after every cycle, with
// resp and inflight sorted throughout.
func TestRouterMatchesScanReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", Latency: 5, Bandwidth: 2, QueueDepth: 4, Sources: 4},
		{Name: "x", Latency: 1, Bandwidth: 1, QueueDepth: 2, Sources: 3},
		{Name: "x", Latency: 6, Bandwidth: 4, QueueDepth: 16, Sources: 16},
		{Name: "x", Latency: 9, Bandwidth: 8, QueueDepth: 1, Sources: 2},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("lat%d-bw%d-depth%d-src%d", cfg.Latency, cfg.Bandwidth, cfg.QueueDepth, cfg.Sources), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 8; seed++ {
				compareWithReference(t, cfg, seed)
			}
		})
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	got, ref := New(cfg), newRefRouter(cfg)
	lows := [2]*refLower{{rng: rand.New(rand.NewSource(seed * 31))}, {rng: rand.New(rand.NewSource(seed * 31))}}
	got.SetLower(lows[0])
	ref.lower = lows[1]
	request := [2]func(uint64, int, uint64, bool, func(uint64)) bool{got.Request, ref.Request}
	var logs [2][]string

	rng := rand.New(rand.NewSource(seed))
	id, refusedAtHead := 0, false
	for cycle := uint64(1); cycle <= 6000; cycle++ {
		if (cycle/400)%3 != 2 && cycle < 5500 {
			for k := rng.Intn(cfg.Bandwidth + 2); k > 0; k-- {
				src := rng.Intn(cfg.Sources+2) - 1 // out-of-range sources clamp
				block, write, fetch := uint64(rng.Intn(1000)), rng.Intn(3) == 0, rng.Intn(5) != 0
				id++
				var accepted [2]bool
				for i := range request {
					i, tag := i, id
					var done func(uint64)
					if fetch {
						done = func(cy uint64) { logs[i] = append(logs[i], fmt.Sprintf("%d: done #%d", cy, tag)) }
					}
					accepted[i] = request[i](cycle, src, block, write, done)
				}
				if accepted[0] != accepted[1] {
					t.Fatalf("seed %d cycle %d: request #%d accepted %v, reference %v", seed, cycle, id, accepted[0], accepted[1])
				}
			}
		}
		got.Tick(cycle)
		ref.Tick(cycle)
		lows[0].Tick(cycle)
		lows[1].Tick(cycle)

		if got.Stats() != ref.st {
			t.Fatalf("seed %d cycle %d: Stats diverged\n got %+v\nwant %+v", seed, cycle, got.Stats(), ref.st)
		}
		if got.Pending() != ref.Pending() || got.Busy() != (ref.Pending() > 0) {
			t.Fatalf("seed %d cycle %d: Pending/Busy = %d/%v, reference %d", seed, cycle, got.Pending(), got.Busy(), ref.Pending())
		}
		if got.Quiescent(cycle) != ref.Quiescent(cycle) || got.NextEvent() != ref.NextEvent() {
			t.Fatalf("seed %d cycle %d: Quiescent/NextEvent = %v/%d, reference %v/%d",
				seed, cycle, got.Quiescent(cycle), got.NextEvent(), ref.Quiescent(cycle), ref.NextEvent())
		}
		if !sorted(&got.inflight) || !sorted(&got.resp) {
			t.Fatalf("seed %d cycle %d: a time-ordered queue is out of order", seed, cycle)
		}
		if f := &got.inflight; f.len() > 1 && f.buf[f.head+1].readyAt <= cycle {
			refusedAtHead = true // two or more overdue hand-overs held in order
		}
		if cycle%2000 == 0 {
			got.ResetCounters()
			ref.st = Stats{}
		}
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("seed %d: completion sequences differ (%d vs %d events)", seed, len(logs[0]), len(logs[1]))
	}
	if !reflect.DeepEqual(lows[0].log, lows[1].log) {
		t.Fatalf("seed %d: hand-over sequences differ (%d vs %d events)", seed, len(lows[0].log), len(lows[1].log))
	}
	if got.Busy() || len(got.hopFree) == 0 {
		t.Fatalf("seed %d: router busy=%v after the stream drained, %d pooled hops", seed, got.Busy(), len(got.hopFree))
	}
	if !refusedAtHead || len(logs[0]) < 500 {
		t.Fatalf("seed %d: weak stream: refused-at-head=%v completions=%d", seed, refusedAtHead, len(logs[0]))
	}
}

// BenchmarkRouterTick measures one router cycle under the default
// 16-source fabric at full bandwidth: four launches, four hand-overs and
// four responses a cycle over an always-accepting lower layer.
func BenchmarkRouterTick(b *testing.B) {
	r := newRig(Default(16), 1)
	step := func() {
		for s := uint64(0); s < 4; s++ {
			r.r.Request(r.now, int((r.now+s)%16), r.now, false, func(uint64) {})
		}
		r.step()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
