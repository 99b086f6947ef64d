package lpm

import (
	"reflect"
	"testing"
)

// ResetSimCaches must actually drop the memoised simulation results —
// the next run has to re-simulate, not replay cached Measurements — and
// SimCacheStats has to count the memo traffic.
func TestResetSimCachesForcesResimulation(t *testing.T) {
	defer ResetSimCaches()

	s := Scale{Warmup: 20000, Window: 5000}

	ResetSimCaches()
	if h, m := SimCacheStats(); h != 0 || m != 0 {
		t.Fatalf("reset left memo counters at hits=%d misses=%d", h, m)
	}

	first := mustTable1(t, s, false)
	_, misses1 := SimCacheStats()
	if misses1 == 0 {
		t.Fatal("first run after reset reported no memo misses")
	}

	// A repeat run is served entirely from the memo: hits grow, misses
	// do not.
	second := mustTable1(t, s, false)
	hits2, misses2 := SimCacheStats()
	if hits2 == 0 {
		t.Fatal("repeat run reported no memo hits")
	}
	if misses2 != misses1 {
		t.Fatalf("repeat run re-simulated: misses %d -> %d", misses1, misses2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoised run diverged from the run that filled the cache")
	}

	// After a reset the same inputs miss again — re-simulation happened —
	// and determinism means the results still match bit for bit.
	ResetSimCaches()
	third := mustTable1(t, s, false)
	hits3, misses3 := SimCacheStats()
	if hits3 != 0 || misses3 == 0 {
		t.Fatalf("post-reset run hits=%d misses=%d, want 0 hits and fresh misses", hits3, misses3)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("re-simulated run diverged from the original")
	}
}
