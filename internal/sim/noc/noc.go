// Package noc models the on-chip interconnect between private caches and
// the shared last-level cache of the CMP: a queued crossbar with
// per-source input queues, round-robin arbitration, finite per-cycle
// bandwidth, and symmetric request/response latency. The paper's NUCA
// context (Fig. 5) implies such a fabric; without it the reproduction's
// L1→L2 hop is a fixed single cycle, which understates both the latency
// and the contention component of the L2 C-AMAT seen by the analyzers.
//
// The router sits between upper caches and a lower layer: it implements
// cache.Lower toward the L1s and forwards to the L2 (or an L3) after the
// configured latency, arbitrated at the configured bandwidth. Responses
// traverse the reverse path with the same latency and their own
// bandwidth budget.
package noc

import (
	"fmt"

	"lpm/internal/obs"
	"lpm/internal/sim/cache"
)

// Config describes the interconnect.
type Config struct {
	// Name labels the router in reports.
	Name string
	// Latency is the one-way traversal time in cycles (>= 1).
	Latency int
	// Bandwidth is the number of messages forwarded per cycle in each
	// direction (>= 1).
	Bandwidth int
	// QueueDepth bounds each source's request queue (>= 1).
	QueueDepth int
	// Sources is the number of upstream requestors (for queue
	// allocation); requests from sources beyond this share the last
	// queue.
	Sources int
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("noc: config has no name")
	case c.Latency < 1:
		return fmt.Errorf("noc %s: latency %d", c.Name, c.Latency)
	case c.Bandwidth < 1:
		return fmt.Errorf("noc %s: bandwidth %d", c.Name, c.Bandwidth)
	case c.QueueDepth < 1:
		return fmt.Errorf("noc %s: queue depth %d", c.Name, c.QueueDepth)
	case c.Sources < 1:
		return fmt.Errorf("noc %s: sources %d", c.Name, c.Sources)
	}
	return nil
}

// Default returns a 16-source mesh-ish fabric: 6-cycle traversal,
// 4 messages per cycle per direction.
func Default(sources int) Config {
	return Config{
		Name:       "noc",
		Latency:    6,
		Bandwidth:  4,
		QueueDepth: 16,
		Sources:    sources,
	}
}

// message is a request or a response in the router. A response uses
// only done and readyAt.
type message struct {
	src     int
	block   uint64
	write   bool
	done    func(cycle uint64)
	arrived uint64 // cycle the request was queued
	readyAt uint64 // cycle the message finishes traversing
}

// fifo is a queue of messages popped at the head without giving the
// backing array's capacity away: buf[head:] is the live content.
type fifo struct {
	buf  []message
	head int
}

func (f *fifo) len() int { return len(f.buf) - f.head }

func (f *fifo) front() *message { return &f.buf[f.head] }

func (f *fifo) push(m message) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		// Reclaim the popped prefix rather than grow.
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, m)
}

func (f *fifo) pop() {
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// hop is the response leg of one forwarded request. It is bound to the
// request when arbitration launches it, handed to the lower layer as
// the request's completion, and recycled when that completion fires.
type hop struct {
	done func(cycle uint64) // the requestor's completion
	fire func(cycle uint64) // built once per hop: queue the response, recycle
}

// Stats counts router events.
type Stats struct {
	// Requests and Responses count forwarded messages.
	Requests, Responses uint64
	// Rejected counts requests refused for a full source queue.
	Rejected uint64
	// QueueCycleSum accumulates queue residency for AvgQueueing.
	QueueCycleSum uint64
}

// Sub returns the counter-wise difference s - o, for windowed deltas of
// cumulative counters (o must be an earlier snapshot of the same router).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Requests:      s.Requests - o.Requests,
		Responses:     s.Responses - o.Responses,
		Rejected:      s.Rejected - o.Rejected,
		QueueCycleSum: s.QueueCycleSum - o.QueueCycleSum,
	}
}

// AvgQueueing returns the mean cycles a request waited for arbitration.
func (s Stats) AvgQueueing() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.QueueCycleSum) / float64(s.Requests)
}

// Router is the crossbar. Create with New, connect with SetLower, and
// Tick once per cycle between the upper caches and the lower layer.
type Router struct {
	cfg   Config
	lower cache.Lower

	queues []fifo // per-source, waiting for arbitration
	queued int    // messages over all source queues
	// inflight (toward the lower layer) and resp (back up) are ordered
	// by readyAt: the latency is one constant and messages enter in
	// cycle order, so only a prefix can be due. A hand-over the lower
	// layer refuses stays where it is, at the front.
	inflight fifo
	resp     fifo
	hopFree  []*hop // recycled response hops
	rr       int    // round-robin arbitration cursor, in [0, Sources)
	now      uint64

	st Stats
	ob *nocObs
}

// nocObs holds the router's registry handles (nil when unobserved).
type nocObs struct {
	requests, responses, rejected *obs.Counter
	avgQueueing                   *obs.Gauge
}

// AttachObs registers this router's metrics under prefix (e.g. "noc")
// in r. A nil registry leaves the router unobserved.
func (r *Router) AttachObs(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	r.ob = &nocObs{
		requests:    reg.Counter(prefix + ".requests"),
		responses:   reg.Counter(prefix + ".responses"),
		rejected:    reg.Counter(prefix + ".rejected"),
		avgQueueing: reg.Gauge(prefix + ".avg_queueing"),
	}
}

// PublishObs copies the accumulated Stats into the attached registry;
// call before snapshotting. No-op when unobserved.
func (r *Router) PublishObs() {
	if r.ob == nil {
		return
	}
	r.ob.requests.Set(r.st.Requests)
	r.ob.responses.Set(r.st.Responses)
	r.ob.rejected.Set(r.st.Rejected)
	r.ob.avgQueueing.Set(r.st.AvgQueueing())
}

// New builds a router; it panics on invalid configuration.
func New(cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Router{cfg: cfg, queues: make([]fifo, cfg.Sources)}
}

// SetLower connects the downstream layer.
func (r *Router) SetLower(l cache.Lower) { r.lower = l }

// Stats returns the event counters.
func (r *Router) Stats() Stats { return r.st }

// ResetCounters zeroes the counters.
func (r *Router) ResetCounters() { r.st = Stats{} }

// Busy reports whether messages are queued or in flight.
func (r *Router) Busy() bool { return r.Pending() > 0 }

// Pending returns the number of messages currently queued or traversing
// in either direction — the interconnect-occupancy probe of the
// time-series sampler and the NoC signal of the stall attribution.
func (r *Router) Pending() int { return r.queued + r.inflight.len() + r.resp.len() }

// queueFor clamps a source id onto the allocated queues.
func (r *Router) queueFor(src int) int {
	if src < 0 {
		return 0
	}
	if src >= r.cfg.Sources {
		return r.cfg.Sources - 1
	}
	return src
}

// Request implements cache.Lower toward the upper caches.
func (r *Router) Request(cycle uint64, src int, block uint64, write bool, done func(cycle uint64)) bool {
	q := &r.queues[r.queueFor(src)]
	if q.len() >= r.cfg.QueueDepth {
		r.st.Rejected++
		return false
	}
	q.push(message{src: src, block: block, write: write, done: done, arrived: cycle})
	r.queued++
	return true
}

// bindHop returns the completion to hand the lower layer for a request
// whose requestor completes through done: a pooled hop's fire.
func (r *Router) bindHop(done func(cycle uint64)) func(cycle uint64) {
	var h *hop
	if n := len(r.hopFree); n > 0 {
		h = r.hopFree[n-1]
		r.hopFree = r.hopFree[:n-1]
	} else {
		h = &hop{}
		h.fire = func(cy uint64) {
			r.resp.push(message{done: h.done, readyAt: cy + uint64(r.cfg.Latency)})
			r.st.Responses++
			r.hopFree = append(r.hopFree, h)
		}
	}
	h.done = done
	return h.fire
}

// Tick advances the router one cycle: deliver responses and forwarded
// requests whose traversal finished, then arbitrate new departures.
func (r *Router) Tick(cycle uint64) {
	r.now = cycle

	// Deliver responses whose reverse traversal completed.
	for r.resp.len() > 0 && r.resp.front().readyAt <= cycle {
		done := r.resp.front().done
		r.resp.pop()
		done(cycle)
	}

	// Hand over requests whose forward traversal completed; on lower-
	// layer backpressure they retry next cycle. The refused ones are
	// collected at the front of the due prefix, then moved up against
	// the messages still traversing.
	if f := &r.inflight; f.len() > 0 && f.front().readyAt <= cycle {
		kept, i := f.head, f.head
		for ; i < len(f.buf) && f.buf[i].readyAt <= cycle; i++ {
			m := &f.buf[i]
			if !r.lower.Request(cycle, m.src, m.block, m.write, m.done) {
				f.buf[kept] = *m
				kept++
			}
		}
		n := kept - f.head
		copy(f.buf[i-n:i], f.buf[f.head:kept])
		f.head = i - n
		if f.head == len(f.buf) {
			f.buf, f.head = f.buf[:0], 0
		}
	}

	// Arbitrate up to Bandwidth departures, round-robin over sources.
	for launched := 0; r.queued > 0 && launched < r.cfg.Bandwidth; {
		q := &r.queues[r.rr]
		if r.rr++; r.rr == r.cfg.Sources {
			r.rr = 0
		}
		if q.len() == 0 {
			continue
		}
		m := *q.front()
		q.pop()
		r.queued--
		r.st.Requests++
		r.st.QueueCycleSum += cycle - m.arrived
		m.readyAt = cycle + uint64(r.cfg.Latency)
		if m.done != nil {
			m.done = r.bindHop(m.done)
		}
		r.inflight.push(m)
		launched++
	}
}
