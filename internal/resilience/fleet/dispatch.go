package fleet

// WorkerLoad is what the dispatch policy sees of one live worker.
type WorkerLoad struct {
	Slots int  // execution slots announced at the handshake, ≥ 1
	Held  int  // granules currently issued to it
	Skip  bool // the granule must not go here (holds it, voted on it, …)
}

// DispatchPolicy decides which worker takes a granule — first issue and
// duplicate copy alike — from a socket-free view, load measured against
// the supply rate each worker announced (its execution slots).
type DispatchPolicy struct{}

// Budget is how many granules a worker may hold: one per slot plus one
// prefetched behind them, so no slot idles for the wire round trip.
func (DispatchPolicy) Budget(slots int) int { return slots + 1 }

// Pick returns the index of the worker the next copy goes to: below
// budget, not skipped, lowest Held/Slots fill (cross-multiplied: exact),
// ties in join order — so every execution slot in the fleet fills before
// anyone's prefetch slot. -1 means nobody can take it.
func (p DispatchPolicy) Pick(workers []WorkerLoad) int {
	best := -1
	for i, w := range workers {
		if w.Skip || w.Held >= p.Budget(w.Slots) {
			continue
		}
		if best < 0 || w.Held*workers[best].Slots < workers[best].Held*w.Slots {
			best = i
		}
	}
	return best
}
