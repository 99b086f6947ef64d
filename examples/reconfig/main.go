// Reconfig runs the paper's case study I end to end: starting from the
// weakest Table I configuration, the LPM algorithm (Fig. 3) walks a
// million-point reconfigurable-architecture design space — issue width,
// instruction window, ROB, L1 ports, MSHRs, L2 interleaving — and stops
// at a configuration whose layered performance matches at the chosen
// stall target, with a handful of simulations instead of exhaustive
// search.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"lpm"
	"lpm/internal/explore"
)

func main() {
	grainFlag := flag.String("grain", "coarse", "stall target: fine (1%) or coarse (10%)")
	flag.Parse()
	grain := lpm.CoarseGrain
	if *grainFlag == "fine" {
		grain = lpm.FineGrain
	}

	start := explore.TableConfigs()["A"]
	fmt.Printf("space: %d configurations; start: %s\n\n", explore.DefaultSpace().Size(), start)

	// Case study I: configuration A, the bwaves-like workload, the
	// paper's delta = 50% of T1 slack, at most 32 steps.
	cs, err := lpm.CaseStudyICtx(context.Background(), grain, lpm.QuickScale())
	if err != nil {
		log.Fatal(err)
	}
	res, final := cs.Algorithm, cs.Final

	for i, st := range res.Steps {
		fmt.Printf("step %2d: %-26s LPMR1=%6.3f (T1=%.3f)  LPMR2=%6.3f\n",
			i+1, st.Case, st.Before.LPMR1(), st.T1, st.Before.LPMR2())
	}

	fmt.Println()
	fmt.Printf("final configuration: %s\n", final)
	fmt.Printf("hardware cost proxy: %.0f (start was %.0f)\n", final.Cost(), start.Cost())
	fmt.Printf("LPMR1 %.3f -> %.3f; measured stall %.4f -> %.4f cycles/instr\n",
		res.Steps[0].Before.LPMR1(), res.Final.LPMR1(),
		res.Steps[0].Before.MeasuredStall, res.Final.MeasuredStall)
	fmt.Printf("simulations: %d (%.4f%% of the space)  converged=%v met=%v\n",
		cs.Evaluations, 100*float64(cs.Evaluations)/float64(cs.SpaceSize),
		res.Converged, res.MetTarget)
}
