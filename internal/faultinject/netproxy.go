package faultinject

// NetProxy is a deterministic network-fault TCP forwarder for the chaos
// suite: the coordinator listens normally, workers dial the proxy, and
// the test script flips faults on the wire between them — a full
// partition that blackholes bytes while keeping both sockets open (the
// hung-TCP case heartbeats exist to catch), one-shot frame corruption
// (a single flipped bit, which the LPMCKPT1 CRC must reject), and
// severing every live connection.
//
// Faults apply per forwarded chunk, so "corrupt the next frame" damages
// whatever write the kernel delivers next — realistic damage at a
// realistic boundary. All mutation goes through FlipBit's seeded
// generator; a NetProxy scenario replays identically for a given seed
// and fault script.

import (
	"net"
	"sync"
)

// NetProxy forwards TCP connections to Target and injects the armed
// faults into both directions of every connection.
type NetProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	parted  bool
	healCh  chan struct{} // closed on Heal; nil when not partitioned
	corrupt int           // chunks still to corrupt (one bit each)
	seed    int64
	conns   map[net.Conn]struct{}
	closed  bool
}

// NewNetProxy starts a proxy on a loopback port forwarding to target.
// seed drives the corruption bit choices.
func NewNetProxy(target string, seed int64) (*NetProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &NetProxy{
		ln:     ln,
		target: target,
		seed:   seed,
		conns:  make(map[net.Conn]struct{}),
	}
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address — what workers should dial.
func (p *NetProxy) Addr() string { return p.ln.Addr().String() }

// Partition blackholes all traffic in both directions while keeping
// every connection open: the TCP sessions look alive but no bytes move,
// exactly the failure heartbeat deadlines exist to detect. Traffic
// resumes on Heal.
func (p *NetProxy) Partition() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.parted {
		return
	}
	p.parted = true
	p.healCh = make(chan struct{})
}

// Heal ends a partition; chunks blocked mid-flight resume forwarding.
func (p *NetProxy) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.parted {
		return
	}
	p.parted = false
	close(p.healCh)
	p.healCh = nil
}

// CorruptNext flips one seeded bit in each of the next n forwarded
// chunks — framing CRCs must catch it and the session must recover.
func (p *NetProxy) CorruptNext(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.corrupt += n
}

// Close shuts the listener and severs every connection.
func (p *NetProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.parted {
		// Unblock pumps parked on the partition so they can exit.
		p.parted = false
		close(p.healCh)
		p.healCh = nil
	}
	p.mu.Unlock()
	_ = p.ln.Close()
	p.dropAll()
}

// dropAll severs every live proxied connection; the peers see a reset.
func (p *NetProxy) dropAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Close order across the set is irrelevant: every conn is severed
	// unconditionally, so iterating the map directly is fine.
	for c := range p.conns {
		_ = c.Close()
	}
}

func (p *NetProxy) accept() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			_ = upstream.Close()
			return
		}
		p.conns[client] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		go p.pump(client, upstream)
		go p.pump(upstream, client)
	}
}

// pump forwards src→dst chunk by chunk, applying the armed faults to
// each chunk. Closing either side tears down both.
func (p *NetProxy) pump(src, dst net.Conn) {
	defer func() {
		_ = src.Close()
		_ = dst.Close()
		p.mu.Lock()
		delete(p.conns, src)
		delete(p.conns, dst)
		p.mu.Unlock()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(p.deliver(buf[:n])); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// deliver applies partition and corruption to one chunk and returns
// the bytes to write.
func (p *NetProxy) deliver(chunk []byte) []byte {
	p.mu.Lock()
	for p.parted {
		heal := p.healCh
		p.mu.Unlock()
		// Park until Heal (or Close) closes the channel; bytes written
		// during a partition are simply delayed, as on a real stalled
		// path, not reordered or dropped.
		<-heal
		p.mu.Lock()
	}
	corrupt := p.corrupt > 0
	seed := p.seed
	if corrupt {
		p.corrupt--
		// Advance the seed so successive corruptions pick fresh bits.
		p.seed++
	}
	p.mu.Unlock()
	if corrupt {
		return FlipBit(chunk, seed)
	}
	return chunk
}
