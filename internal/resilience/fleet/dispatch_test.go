package fleet

import (
	"reflect"
	"testing"
)

// issue places n granules one at a time, as the coordinator does, and
// returns the pick sequence (-1 = nobody could take it; Held untouched).
func issue(p DispatchPolicy, fleet []WorkerLoad, n int) []int {
	picks := make([]int, n)
	for k := range picks {
		picks[k] = p.Pick(fleet)
		if picks[k] >= 0 {
			fleet[picks[k]].Held++
		}
	}
	return picks
}

// TestDispatchPolicy pins the placement rule: budget slots+1, lowest
// held/slots fill first, ties in join order.
func TestDispatchPolicy(t *testing.T) {
	t.Parallel()
	var p DispatchPolicy
	if got := p.Budget(1); got != 2 {
		t.Errorf("Budget(1) = %d, want 2: one executing, one prefetched", got)
	}
	if got := p.Budget(8); got != 9 {
		t.Errorf("Budget(8) = %d, want 9", got)
	}
	for _, tc := range []struct {
		name  string
		fleet []WorkerLoad
		want  []int
	}{
		// The sweep_real shape: the join-order fill gave both to worker 0.
		{"two 1-slot workers, two granules: one each",
			[]WorkerLoad{{Slots: 1}, {Slots: 1}}, []int{0, 1}},
		{"{4 slots, 1 slot}: five granules land 4/1, the sixth and seventh are the prefetches, the eighth waits",
			[]WorkerLoad{{Slots: 4}, {Slots: 1}}, []int{0, 1, 0, 0, 0, 0, 1, -1}},
		{"execution slots of the whole fleet fill before anyone's prefetch slot",
			[]WorkerLoad{{Slots: 1}, {Slots: 1}, {Slots: 1}}, []int{0, 1, 2, 0, 1, 2, -1}},
		{"a worker at budget is never picked, however idle its peers are not",
			[]WorkerLoad{{Slots: 1, Held: 2}, {Slots: 8, Held: 8}}, []int{1, -1}},
		{"the fill ratio, not the held count, orders workers",
			[]WorkerLoad{{Slots: 1, Held: 1}, {Slots: 4, Held: 3}}, []int{1, 0, 1, -1}},
		{"a worker that holds or voted on the granule is skipped; the others are not starved",
			[]WorkerLoad{{Slots: 2, Skip: true}, {Slots: 1, Held: 1}}, []int{1, -1}},
		{"every candidate skipped: the granule is passed over",
			[]WorkerLoad{{Slots: 2, Skip: true}, {Slots: 1, Skip: true}}, []int{-1}},
		{"no workers at all",
			nil, []int{-1}},
	} {
		if got := issue(p, tc.fleet, len(tc.want)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: picks %v, want %v", tc.name, got, tc.want)
		}
	}

	// A join mid-batch takes the next granule: the newcomer is the
	// least loaded the moment it appears.
	fleet := []WorkerLoad{{Slots: 2}}
	if got, want := issue(p, fleet, 2), []int{0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("before the join: picks %v, want %v", got, want)
	}
	fleet = append(fleet, WorkerLoad{Slots: 2})
	if got, want := issue(p, fleet, 3), []int{1, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("after the join: picks %v, want %v", got, want)
	}
}
