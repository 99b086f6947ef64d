package trace

import (
	"lpm/internal/stats"
)

// Synthetic generates a deterministic instruction stream from a Profile.
// It implements Generator. Create with NewSynthetic.
type Synthetic struct {
	prof Profile
	rng  stats.RNG

	// Samplers precomputed from the profile's constants (NewSynthetic),
	// so the per-instruction path does no float math over fixed
	// parameters. Each is stream-identical to the direct RNG call it
	// replaces (see the package comment).
	mem, burstMem    stats.BoolSampler  // Bool(MemFrac), Bool(burst-boosted MemFrac)
	store, chase     stats.BoolSampler  // Bool(StoreFrac), Bool(ChaseFrac)
	seq, hot         stats.BoolSampler  // Bool(SeqFrac), Bool(HotFrac)
	execLat, depDist *stats.GeomSampler // Geometric(1/ExecLat), Geometric(1/DepDist); nil when unused
	hotZipf          *stats.ZipfSampler // Zipf(hot blocks, 0.6); nil without a hot region

	idx        uint64 // dynamic instruction index
	seqCursor  uint64 // sequential sweep position
	lastLoadAt uint64 // index of the most recent load (for pointer chasing)
	haveLoad   bool
	phaseLeft  int  // instructions left in the current burst/gap phase
	inBurst    bool // current phase is a memory burst

	// Instructions are generated a block at a time (refill) and handed
	// out by Next; the state above runs ahead of the consumer by the
	// unread part of the block.
	blk [64]Instr
	pos int // next unread slot; len(blk) when the block is spent
}

// NewSynthetic returns a generator for the profile. It panics if the
// profile fails validation, since profiles are program constants.
func NewSynthetic(p Profile) *Synthetic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Stride == 0 {
		p.Stride = 8
	}
	g := &Synthetic{
		prof:  p,
		mem:   stats.NewBoolSampler(p.MemFrac),
		store: stats.NewBoolSampler(p.StoreFrac),
		chase: stats.NewBoolSampler(p.ChaseFrac),
		seq:   stats.NewBoolSampler(p.SeqFrac),
		hot:   stats.NewBoolSampler(p.HotFrac),
	}
	if p.BurstLen != 0 && p.GapLen != 0 {
		// Boost memory intensity during the burst; the overall average
		// stays near MemFrac because gaps are compute-only.
		boosted := p.MemFrac * float64(p.BurstLen+p.GapLen) / float64(p.BurstLen)
		if boosted > 0.95 {
			boosted = 0.95
		}
		g.burstMem = stats.NewBoolSampler(boosted)
	}
	if p.ExecLat > 1 {
		g.execLat = stats.NewGeomSampler(1 / p.ExecLat)
	}
	if p.DepDist > 0 {
		g.depDist = stats.NewGeomSampler(1 / p.DepDist)
	}
	if p.HotBytes > 0 {
		hotBlks := int(p.HotBytes / 64)
		if hotBlks < 1 {
			hotBlks = 1
		}
		g.hotZipf = stats.NewZipfSampler(hotBlks, 0.6)
	}
	g.Reset()
	return g
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.prof.Name }

// Reset implements Generator.
func (g *Synthetic) Reset() {
	g.rng.Reseed(g.prof.Seed ^ 0x15ecc0de ^ hashName(g.prof.Name))
	g.idx = 0
	g.seqCursor = 0
	g.lastLoadAt = 0
	g.haveLoad = false
	g.inBurst = true
	g.phaseLeft = g.prof.BurstLen
	g.pos = len(g.blk)
}

// hashName folds a workload name into a seed component so that two
// profiles that differ only in name still produce distinct streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next implements Generator.
func (g *Synthetic) Next() Instr {
	if g.pos == len(g.blk) {
		g.refill()
	}
	in := g.blk[g.pos]
	g.pos++
	return in
}

// refill generates the next len(blk) instructions. The xorshift state
// and the profile's constants live in locals for the whole block.
func (g *Synthetic) refill() {
	rng := g.rng
	idx := g.idx
	bursty := g.prof.BurstLen != 0 && g.prof.GapLen != 0
	stride, footprint := g.prof.Stride, g.prof.Footprint
	for i := range g.blk {
		// The probability that this instruction is a memory access:
		// MemFrac, or under burst phases the boosted value / zero.
		mem := g.mem
		if bursty {
			if g.phaseLeft <= 0 {
				g.inBurst = !g.inBurst
				if g.inBurst {
					g.phaseLeft = g.prof.BurstLen
				} else {
					g.phaseLeft = g.prof.GapLen
				}
			}
			g.phaseLeft--
			mem = g.burstMem
			if !g.inBurst {
				mem = stats.BoolSampler{}
			}
		}
		in := Instr{Lat: 1}
		switch {
		case !mem.Sample(&rng):
			// A non-memory instruction with a plausible latency and
			// dependency distance.
			if g.execLat != nil {
				// Latency is 1 + geometric tail with the configured mean.
				in.Lat = uint8(1 + min(g.execLat.Sample(&rng), 30))
			}
			if g.depDist != nil && idx > 0 {
				// Dependency distance ~ 1 + geometric with mean DepDist.
				in.Dep = clampDep(min(uint64(1+g.depDist.Sample(&rng)), idx))
			}
		case g.store.Sample(&rng):
			in.Kind = Store
			in.Addr = g.nextAddr(&rng, stride, footprint)
		default:
			in.Kind = Load
			in.Addr = g.nextAddr(&rng, stride, footprint)
			// Pointer chasing: a load whose address depends on the
			// previous load.
			if g.haveLoad && g.chase.Sample(&rng) && idx > g.lastLoadAt {
				in.Dep = clampDep(idx - g.lastLoadAt)
			}
			g.lastLoadAt = idx
			g.haveLoad = true
		}
		g.blk[i] = in
		idx++
	}
	g.rng = rng
	g.idx = idx
	g.pos = 0
}

// nextAddr draws the next memory address per the profile's locality mix.
func (g *Synthetic) nextAddr(rng *stats.RNG, stride, footprint uint64) uint64 {
	if g.seq.Sample(rng) {
		a := g.seqCursor
		g.seqCursor = (g.seqCursor + stride) % footprint
		return a
	}
	if g.hotZipf != nil && g.hot.Sample(rng) {
		// Hot region with mild Zipf skew over 64-byte blocks: hot enough
		// to reward capacity that covers the region, flat enough that a
		// fraction of the region is not a substitute for all of it.
		b := g.hotZipf.Sample(rng)
		return uint64(b)*64 + rng.Uint64n(64)&^0x7
	}
	// Cold uniform access over the whole footprint, 8-byte aligned.
	return rng.Uint64n(footprint) &^ 0x7
}

func clampDep(d uint64) uint32 {
	const max = 1 << 30
	if d > max {
		return max
	}
	return uint32(d)
}
