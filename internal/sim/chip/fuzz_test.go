package chip_test

import "testing"

// FuzzHierarchyBackpressure searches the memory-hierarchy parameter space
// for a setting where the fast-forwarding engine and the cycle stepper
// disagree on any Stats struct, or where a time-ordered queue loses its
// order: hit latencies, ports, MSHRs and targets, queue depths, NoC
// latency and bandwidth, DRAM banks and timings, on a 2-4-core coherent
// chip. It is the seed of ROADMAP 2(d)'s FuzzEngineEquivalence,
// restricted to the knobs the head-checked queues, the retry gate and the
// DRAM stall stamp depend on. Every byte is folded into its knob's valid
// range, so no input is rejected.
func FuzzHierarchyBackpressure(f *testing.F) {
	// The NUCA defaults, then the hostile corners: everything minimal,
	// shallow queues under a slow fabric, a deep pipeline over one bank.
	f.Add([]byte{2, 3, 2, 8, 8, 30, 8, 64, 128, 6, 4, 16, 8, 64, 33, 33, 33, 8, 8, 1, 0})
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1})
	f.Add([]byte{2, 3, 2, 2, 2, 30, 1, 64, 4, 6, 4, 2, 8, 2, 33, 33, 33, 8, 8, 1, 2})
	f.Add([]byte{1, 12, 4, 3, 1, 40, 3, 2, 2, 15, 1, 1, 1, 1, 5, 40, 2, 12, 20, 0, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		at := func(i, lo, n int) int { // knob i, folded into [lo, lo+n)
			if i < len(b) {
				return lo + int(b[i])%n
			}
			return lo
		}
		k := hierarchyKnobs{
			cores: at(0, 2, 3),
			l1Hit: at(1, 1, 12), l1Ports: at(2, 1, 4), l1MSHRs: at(3, 1, 8), l1Targets: at(4, 1, 8),
			l2Hit: at(5, 1, 40), l2Ports: at(6, 1, 8), l2MSHRs: at(7, 1, 64), l2Input: at(8, 1, 128),
			nocLat: at(9, 1, 16), nocBW: at(10, 1, 4), nocDepth: at(11, 1, 16),
			banks: at(12, 1, 8), dramQueue: at(13, 1, 64),
			tCL: at(14, 1, 40), tRCD: at(15, 1, 40), tRP: at(16, 1, 40), tBurst: at(17, 1, 12),
			invalLat: uint64(at(18, 0, 24)),
			fcfs:     at(19, 0, 2) == 0,
			seed:     uint64(at(20, 0, 256)),
		}
		checkHierarchyEquiv(t, k, 8, 811)
	})
}
