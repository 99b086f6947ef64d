package chip

import (
	"fmt"

	"lpm/internal/sim/cache"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/trace"
)

// KB is one kibibyte, exported for configuration literals.
const KB = 1 << 10

// MB is one mebibyte.
const MB = 1 << 20

// DefaultCPU returns a mid-range out-of-order core configuration
// (4-wide, 64-entry ROB, 32-entry window).
func DefaultCPU(name string) cpu.Config {
	return cpu.Config{
		Name:       name,
		IssueWidth: 4,
		ROBSize:    64,
		IWSize:     32,
		LSQSize:    24,
	}
}

// DefaultL1 returns an L1 data cache of the given size: 64 B blocks,
// 4-way, 3-cycle hit, 2 ports, 4 banks, 8 MSHRs.
func DefaultL1(name string, size uint64) cache.Config {
	assoc := 4
	if size/(64*uint64(assoc)) == 0 {
		assoc = 1
	}
	return cache.Config{
		Name:       name,
		Size:       size,
		BlockSize:  64,
		Assoc:      assoc,
		HitLatency: 3,
		Ports:      2,
		Banks:      4,
		MSHRs:      8,
		Coalesce:   true,
		Repl:       cache.LRU,
	}
}

// DefaultL2 returns a shared last-level cache of the given size: 64 B
// blocks, 8-way, 10-cycle hit, 4 ports, 8 banks, 32 MSHRs.
func DefaultL2(name string, size uint64) cache.Config {
	return cache.Config{
		Name:       name,
		Size:       size,
		BlockSize:  64,
		Assoc:      8,
		HitLatency: 10,
		Ports:      4,
		Banks:      8,
		MSHRs:      32,
		InputQueue: 64,
		Coalesce:   true,
		Repl:       cache.LRU,
	}
}

// SingleCore builds a one-core chip running the named built-in workload
// profile with default parameters. Callers may mutate the returned config
// before calling New.
func SingleCore(profile string) Config {
	gen := trace.NewSynthetic(trace.MustProfile(profile))
	return Config{
		Name: "single-" + profile,
		Cores: []CoreSlot{{
			CPU:      DefaultCPU("core0"),
			L1:       DefaultL1("L1D-0", 32*KB),
			Workload: gen,
		}},
		L2:  DefaultL2("L2", 1*MB),
		Mem: dram.DDR3("mem"),
	}
}

// NUCAGroupCores is the number of cores per group in the Fig. 5 chip.
const NUCAGroupCores = 4

// NUCACPU returns the core configuration used by the Fig. 5 16-core CMP:
// a moderate 2-wide out-of-order core, so sixteen of them load but do not
// drown the shared L2 and memory.
func NUCACPU(name string) cpu.Config {
	return cpu.Config{
		Name:       name,
		IssueWidth: 2,
		ROBSize:    48,
		IWSize:     24,
		LSQSize:    16,
	}
}

// NUCAL2 returns the shared LLC used by the Fig. 5 chip: 8 MB, heavily
// banked and ported for sixteen clients.
func NUCAL2() cache.Config {
	l2 := DefaultL2("L2", 8*MB)
	l2.HitLatency = 30
	l2.Ports = 8
	l2.Banks = 16
	l2.MSHRs = 64
	l2.InputQueue = 128
	return l2
}

// NUCAMem returns the main memory used by the Fig. 5 chip: eight channels
// with deep queues.
func NUCAMem() dram.Config {
	m := dram.DDR3("mem")
	m.Channels = 8
	m.QueueDepth = 64
	return m
}

// NUCAGroupSizes are the four private L1 capacities of the paper's
// Fig. 5 heterogeneous 16-core CMP, one per 4-core group.
var NUCAGroupSizes = [4]uint64{4 * KB, 16 * KB, 32 * KB, 64 * KB}

// NUCA16 builds the paper's Fig. 5 chip: sixteen cores in four groups
// whose private L1 data caches are 4, 16, 32 and 64 KB. workloads[i]
// (nil allowed) runs on core i; core i belongs to group i/4.
func NUCA16(workloads []trace.Generator) Config {
	if len(workloads) > 16 {
		panic(fmt.Sprintf("chip: NUCA16 given %d workloads", len(workloads)))
	}
	cfg := Config{
		Name: "nuca16",
		L2:   NUCAL2(),
		Mem:  NUCAMem(),
	}
	for i := 0; i < 16; i++ {
		var gen trace.Generator
		if i < len(workloads) && workloads[i] != nil {
			// Disjoint address spaces: co-running programs must not alias
			// in the shared L2 and memory.
			gen = trace.WithOffset(workloads[i], uint64(i+1)<<33)
		}
		size := NUCAGroupSizes[i/4]
		cfg.Cores = append(cfg.Cores, CoreSlot{
			CPU:      NUCACPU(fmt.Sprintf("core%d", i)),
			L1:       DefaultL1(fmt.Sprintf("L1D-%d", i), size),
			Workload: gen,
		})
	}
	return cfg
}

// NUCASingle builds a one-core chip on the same platform as NUCA16 (same
// core microarchitecture, L2 and memory) with the given private L1 size —
// the standalone reference configuration for profiling and Hsp
// normalisation.
func NUCASingle(gen trace.Generator, l1Size uint64) Config {
	return Config{
		Name: "nuca-single",
		Cores: []CoreSlot{{
			CPU:      NUCACPU("core0"),
			L1:       DefaultL1("L1D-0", l1Size),
			Workload: gen,
		}},
		L2:  NUCAL2(),
		Mem: NUCAMem(),
	}
}
