package cache

import (
	"testing"
	"testing/quick"

	"lpm/internal/sim/dram"
)

// propConfig derives a small but varied configuration from fuzz bytes.
type propConfig struct {
	SizeKB   uint8
	Assoc    uint8
	Ports    uint8
	Banks    uint8
	MSHRs    uint8
	HitLat   uint8
	Coalesce bool
	Repl     uint8
}

func (p propConfig) build() Config {
	size := uint64(p.SizeKB%8+1) * 1024
	assoc := int(p.Assoc%4 + 1)
	if size/(64*uint64(assoc)) == 0 {
		assoc = 1
	}
	return Config{
		Name:       "prop",
		Size:       size,
		BlockSize:  64,
		Assoc:      assoc,
		HitLatency: int(p.HitLat%5 + 1),
		Ports:      int(p.Ports%4 + 1),
		Banks:      int(p.Banks%8 + 1),
		MSHRs:      int(p.MSHRs%8 + 1),
		Coalesce:   p.Coalesce,
		Repl:       ReplPolicy(p.Repl % 3),
	}
}

// TestPropertyCacheInvariants fuzzes cache geometry and access patterns
// and asserts the bookkeeping invariants that every configuration must
// preserve: no access is lost, hit/miss partition completions, the
// analyzer drains, and primary misses never exceed misses.
func TestPropertyCacheInvariants(t *testing.T) {
	f := func(pc propConfig, addrSeed []uint16, writes []bool) bool {
		if len(addrSeed) == 0 {
			return true
		}
		if len(addrSeed) > 120 {
			addrSeed = addrSeed[:120]
		}
		cfg := pc.build()
		if cfg.Validate() != nil {
			return false // build must always produce a valid config
		}
		c := New(cfg)
		lower := &dram.Fixed{Latency: uint64(pc.HitLat%17 + 1)}
		c.SetLower(lower)

		completed := 0
		var now uint64
		for i, a := range addrSeed {
			addr := uint64(a) * 8
			w := i < len(writes) && writes[i]
			for !c.Access(now+1, addr, w, func(uint64) { completed++ }) {
				now++
				c.Tick(now)
				lower.Tick(now)
			}
			now++
			c.Tick(now)
			lower.Tick(now)
		}
		for i := 0; i < 10000 && (c.Busy() || lower.Busy()); i++ {
			now++
			c.Tick(now)
			lower.Tick(now)
		}
		if c.Busy() {
			return false // drain must terminate
		}
		st := c.Stats()
		p := c.Analyzer().Snapshot()
		switch {
		case completed != len(addrSeed):
			return false
		case st.Hits+st.Misses != p.Completed:
			return false
		case p.Accesses != p.Completed:
			return false
		case st.PrimaryMisses > st.Misses:
			return false
		case p.PureMisses > p.Misses:
			return false
		case p.ActiveCycles != p.HitActiveCycles+p.PureCycles:
			return false
		}
		// Eq. (3) exactly, on the drained layer.
		if p.ActiveCycles > 0 {
			if d := p.CAMAT() - 1/p.APC(); d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
