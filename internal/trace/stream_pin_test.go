package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"lpm/internal/stats"
)

// refSynthetic is the per-instruction generator Synthetic was before it
// generated blocks from tables: every draw is a direct RNG.Bool /
// Geometric / Zipf call, one instruction per Next. It is the reference
// the block generator must equal instruction for instruction; the
// SHA-256 pins in testdata/stream_sha256.txt (taken from the generator
// as it stood before the block refill) keep this copy from drifting
// along with the code it checks.
type refSynthetic struct {
	prof Profile
	rng  *stats.RNG

	idx        uint64
	seqCursor  uint64
	lastLoadAt uint64
	haveLoad   bool
	phaseLeft  int
	inBurst    bool
}

func newRefSynthetic(p Profile) *refSynthetic {
	if p.Stride == 0 {
		p.Stride = 8
	}
	g := &refSynthetic{prof: p}
	g.Reset()
	return g
}

func (g *refSynthetic) Name() string { return g.prof.Name }

func (g *refSynthetic) Reset() {
	g.rng = stats.NewRNG(g.prof.Seed ^ 0x15ecc0de ^ hashName(g.prof.Name))
	g.idx = 0
	g.seqCursor = 0
	g.lastLoadAt = 0
	g.haveLoad = false
	g.inBurst = true
	g.phaseLeft = g.prof.BurstLen
}

func (g *refSynthetic) memProbability() float64 {
	p := g.prof
	if p.BurstLen == 0 || p.GapLen == 0 {
		return p.MemFrac
	}
	if g.phaseLeft <= 0 {
		g.inBurst = !g.inBurst
		if g.inBurst {
			g.phaseLeft = p.BurstLen
		} else {
			g.phaseLeft = p.GapLen
		}
	}
	g.phaseLeft--
	if g.inBurst {
		boosted := p.MemFrac * float64(p.BurstLen+p.GapLen) / float64(p.BurstLen)
		if boosted > 0.95 {
			boosted = 0.95
		}
		return boosted
	}
	return 0
}

func (g *refSynthetic) Next() Instr {
	p := g.prof
	defer func() { g.idx++ }()

	if !g.rng.Bool(g.memProbability()) {
		return g.computeInstr()
	}

	in := Instr{Kind: Load, Lat: 1}
	if g.rng.Bool(p.StoreFrac) {
		in.Kind = Store
	}
	in.Addr = g.nextAddr()

	if in.Kind == Load && g.haveLoad && g.rng.Bool(p.ChaseFrac) {
		dist := g.idx - g.lastLoadAt
		if dist > 0 {
			in.Dep = clampDep(dist)
		}
	}
	if in.Kind == Load {
		g.lastLoadAt = g.idx
		g.haveLoad = true
	}
	return in
}

func (g *refSynthetic) computeInstr() Instr {
	p := g.prof
	in := Instr{Kind: Compute, Lat: 1}
	if p.ExecLat > 1 {
		extra := g.rng.Geometric(1 / p.ExecLat)
		if extra > 30 {
			extra = 30
		}
		in.Lat = uint8(1 + extra)
	}
	if p.DepDist > 0 && g.idx > 0 {
		d := uint64(1 + g.rng.Geometric(1/p.DepDist))
		if d > g.idx {
			d = g.idx
		}
		in.Dep = clampDep(d)
	}
	return in
}

func (g *refSynthetic) nextAddr() uint64 {
	p := g.prof
	if g.rng.Bool(p.SeqFrac) {
		a := g.seqCursor
		g.seqCursor = (g.seqCursor + p.Stride) % p.Footprint
		return a
	}
	if p.HotBytes > 0 && g.rng.Bool(p.HotFrac) {
		hotBlks := int(p.HotBytes / 64)
		if hotBlks < 1 {
			hotBlks = 1
		}
		b := g.rng.Zipf(hotBlks, 0.6)
		return uint64(b)*64 + g.rng.Uint64n(64)&^0x7
	}
	return g.rng.Uint64n(p.Footprint) &^ 0x7
}

// refPhased is Phased over reference phases: the same Markov walk
// (copied, since Phased holds its phases as *Synthetic).
type refPhased struct {
	phases  []Generator
	trans   [][]float64
	dwell   int
	seed    uint64
	rng     *stats.RNG
	current int
	left    int
}

func (p *refPhased) Name() string { return "phased" }

func (p *refPhased) Reset() {
	p.rng = stats.NewRNG(p.seed ^ 0x9a5ed)
	for _, ph := range p.phases {
		ph.Reset()
	}
	p.current = 0
	p.left = p.dwell
}

func (p *refPhased) Next() Instr {
	if p.left == 0 {
		// Rows of the pinned matrix are non-negative and sum to 1.
		row := p.trans[p.current]
		u := p.rng.Float64()
		acc := 0.0
		p.current = len(row) - 1
		for i, w := range row {
			if w <= 0 {
				continue
			}
			acc += w
			if u <= acc {
				p.current = i
				break
			}
		}
		p.left = p.dwell
	}
	p.left--
	return p.phases[p.current].Next()
}

// burstProfile is a short-period bursty profile whose phase flips fall
// inside blocks, not on their boundaries.
var burstProfile = Profile{
	Name: "pin", MemFrac: 0.4, StoreFrac: 0.25, Footprint: 1 << 20,
	HotBytes: 4096, HotFrac: 0.5, SeqFrac: 0.125, Stride: 8, ChaseFrac: 0.0625,
	DepDist: 3, ExecLat: 1.5, BurstLen: 100, GapLen: 50, Seed: 7,
}

// pinnedStream is one stream of the pin test: how to build it from the
// production generator and from the reference.
type pinnedStream struct {
	name     string
	gen, ref func() Generator
}

// The three-phase Markov stream of the pin test.
var (
	phasedProfiles = []Profile{MustProfile("401.bzip2"), burstProfile, MustProfile("429.mcf")}
	phasedTrans    = [][]float64{{0.25, 0.5, 0.25}, {0.5, 0.25, 0.25}, {0.5, 0.5, 0}}
)

const (
	phasedDwell = 777
	phasedSeed  = 11
)

func pinnedStreams() []pinnedStream {
	var out []pinnedStream
	for _, name := range ProfileNames() {
		prof := MustProfile(name)
		out = append(out, pinnedStream{name,
			func() Generator { return NewSynthetic(prof) },
			func() Generator { return newRefSynthetic(prof) }})
	}
	out = append(out, pinnedStream{"burst",
		func() Generator { return NewSynthetic(burstProfile) },
		func() Generator { return newRefSynthetic(burstProfile) }})
	out = append(out, pinnedStream{"phased",
		func() Generator {
			return NewPhased("phased", phasedProfiles, phasedTrans, phasedDwell, phasedSeed)
		},
		func() Generator {
			p := &refPhased{trans: phasedTrans, dwell: phasedDwell, seed: phasedSeed}
			for _, prof := range phasedProfiles {
				p.phases = append(p.phases, newRefSynthetic(prof))
			}
			p.Reset()
			return p
		}})
	wrap := func(g Generator) Generator {
		return WithSharedRegion(WithOffset(g, 1<<32), GlobalBase, 256<<10, 0.05, 3)
	}
	gcc := MustProfile("403.gcc")
	out = append(out, pinnedStream{"offset+shared",
		func() Generator { return wrap(NewSynthetic(gcc)) },
		func() Generator { return wrap(newRefSynthetic(gcc)) }})
	return out
}

// pinLen is the pinned prefix of every stream.
const pinLen = 1 << 20

// streamDigest hashes the first pinLen instructions of g.
func streamDigest(g Generator) string {
	h := sha256.New()
	var rec [14]byte
	for i := 0; i < pinLen; i++ {
		in := g.Next()
		rec[0] = byte(in.Kind)
		binary.LittleEndian.PutUint64(rec[1:], in.Addr)
		binary.LittleEndian.PutUint32(rec[9:], in.Dep)
		rec[13] = in.Lat
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readPins loads testdata/stream_sha256.txt: "<stream> <sha256>" lines.
func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/stream_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed pin line %q", line)
		}
		pins[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestStreamPinned: the block generator equals the per-instruction
// reference instruction for instruction — from a fresh generator, and
// again after a Reset issued in the middle of a block — and both equal
// the digest recorded before the block refill existed.
func TestStreamPinned(t *testing.T) {
	pins := readPins(t)
	for _, s := range pinnedStreams() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			want, ok := pins[s.name]
			if !ok {
				t.Fatalf("no pinned digest for stream %q", s.name)
			}
			if got := streamDigest(s.ref()); got != want {
				t.Fatalf("reference generator drifted from the pinned stream: %s, want %s", got, want)
			}
			gen, ref := s.gen(), s.ref()
			// Stop mid-block (100 = one block and 36 instructions), then
			// rewind: the unread part of the block must not survive.
			for i := 0; i < 100; i++ {
				gen.Next()
			}
			gen.Reset()
			for i := 0; i < pinLen; i++ {
				if a, b := gen.Next(), ref.Next(); a != b {
					t.Fatalf("instruction %d after a mid-block Reset: %+v, reference %+v", i, a, b)
				}
			}
			gen.Reset()
			if got := streamDigest(gen); got != want {
				t.Fatalf("stream digest %s, want %s", got, want)
			}
		})
	}
}
