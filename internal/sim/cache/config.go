// Package cache implements the cache substrate of the LPM reproduction: a
// set-associative, multi-ported, banked, pipelined, non-blocking cache
// with MSHRs (miss status holding registers), write-back/write-allocate
// stores, and pluggable replacement. These are exactly the
// concurrency-driven mechanisms the paper enumerates as sources of hit
// concurrency (multi-port, multi-bank, pipelined structures -> C_H) and
// miss concurrency (non-blocking caches -> C_M).
//
// A cache is cycle-driven: the owner calls Tick once per cycle, in
// hierarchy order (L1 before L2 before DRAM). Cross-layer communication
// takes effect on the following cycle, modelling a one-cycle interconnect
// hop. An attached analyzer.Analyzer observes every access and classifies
// cycles per the paper's Fig. 1 semantics.
package cache

import "fmt"

// ReplPolicy selects a replacement policy.
type ReplPolicy uint8

// Replacement policies.
const (
	// LRU evicts the least recently used way.
	LRU ReplPolicy = iota
	// RandomRepl evicts a pseudo-random way.
	RandomRepl
	// FIFORepl evicts ways in fill order (ablation baseline).
	FIFORepl
)

// String implements fmt.Stringer.
func (r ReplPolicy) String() string {
	switch r {
	case LRU:
		return "LRU"
	case RandomRepl:
		return "Random"
	case FIFORepl:
		return "FIFO"
	default:
		return fmt.Sprintf("ReplPolicy(%d)", uint8(r))
	}
}

// Config describes one cache. All sizes are in bytes.
type Config struct {
	// Name labels the cache in reports (e.g. "L1D-0", "L2").
	Name string
	// Size is the total capacity.
	Size uint64
	// BlockSize is the line size: a power of two, at least 4.
	BlockSize uint64
	// Assoc is the number of ways per set. Size/(BlockSize*Assoc) sets
	// must come out a power of two... (not required; any positive count
	// works, indexing is modulo).
	Assoc int
	// HitLatency is the hit-operation time in cycles (the paper's H).
	HitLatency int
	// Ports is the number of new accesses the cache can begin per cycle
	// (multi-port structure; raises C_H).
	Ports int
	// Banks is the number of independently addressed banks; each bank can
	// begin at most one access per cycle. Banks == interleaving degree in
	// the paper's Table I.
	Banks int
	// MSHRs is the number of distinct outstanding missed blocks
	// (non-blocking cache; raises C_m and C_M).
	MSHRs int
	// MSHRTargets is the maximum number of coalesced accesses per MSHR;
	// 0 means 8.
	MSHRTargets int
	// InputQueue bounds requests accepted from the layer above but not
	// yet in service; 0 means 2*Ports+8.
	InputQueue int
	// Coalesce enables attaching secondary misses to an existing MSHR for
	// the same block. Disabling it is an ablation (each miss then needs
	// its own MSHR).
	Coalesce bool
	// Repl selects the replacement policy.
	Repl ReplPolicy
	// SrcID identifies this cache to the layer below (e.g. the core
	// index of a private L1): the requestor a directory records as a
	// sharer and a NoC routes responses to.
	SrcID int
	// Seed feeds the random replacement policy.
	Seed uint64
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("cache: config has no name")
	case c.Size == 0:
		return fmt.Errorf("cache %s: zero size", c.Name)
	case c.BlockSize == 0 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockSize)
	case c.BlockSize < 1<<tagShift:
		// The tag word keeps two state bits below the block address.
		return fmt.Errorf("cache %s: block size %d below %d bytes", c.Name, c.BlockSize, 1<<tagShift)
	case c.Size%c.BlockSize != 0:
		return fmt.Errorf("cache %s: size %d not a multiple of block size %d", c.Name, c.Size, c.BlockSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: associativity %d", c.Name, c.Assoc)
	case c.Size/(c.BlockSize*uint64(c.Assoc)) == 0:
		return fmt.Errorf("cache %s: fewer than one set", c.Name)
	case c.HitLatency <= 0:
		return fmt.Errorf("cache %s: hit latency %d", c.Name, c.HitLatency)
	case c.Ports <= 0:
		return fmt.Errorf("cache %s: ports %d", c.Name, c.Ports)
	case c.Banks <= 0:
		return fmt.Errorf("cache %s: banks %d", c.Name, c.Banks)
	case c.MSHRs <= 0:
		return fmt.Errorf("cache %s: MSHRs %d", c.Name, c.MSHRs)
	case c.MSHRTargets < 0 || c.InputQueue < 0:
		return fmt.Errorf("cache %s: negative queue bound", c.Name)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c *Config) Sets() uint64 { return c.Size / (c.BlockSize * uint64(c.Assoc)) }

// Lower is the next layer down (another cache or main memory). Request
// asks for a whole block on behalf of requestor src (an upper cache's
// SrcID); done (nil for writebacks) is invoked during a later cycle's
// Tick of the lower component when the block is available. Request
// returns false when the lower layer cannot accept more requests this
// cycle; the caller must retry.
type Lower interface {
	Request(cycle uint64, src int, blockAddr uint64, write bool, done func(cycle uint64)) bool
}

// CleanEvictee is an optional surface of a Lower that tracks which upper
// caches hold a block (a coherence directory). Dirty victims reach the
// lower layer as writebacks; clean victims are otherwise dropped
// silently, so without this call such a layer could never forget a
// block. A cache tells a lower layer that implements it whenever a
// valid, clean line leaves.
type CleanEvictee interface {
	// EvictClean reports that requestor src dropped its clean copy of
	// block.
	EvictClean(src int, block uint64)
}
