// Quickstart: simulate one workload on a single-core chip, read the
// C-AMAT parameters the analyzer measured at each layer, and evaluate the
// LPM model — layered matching ratios, thresholds, and the data stall
// prediction — in about thirty lines of code.
package main

import (
	"fmt"
	"log"

	"lpm"
)

func main() {
	// 1. Pick a built-in SPEC CPU2006-like workload.
	const workload = "403.gcc"
	gen, err := lpm.NewWorkload(workload)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Calibrate CPI_exe (Eq. 5): the core's cycles per instruction
	// under a perfect cache.
	cfg := lpm.SingleCore(workload)
	cpiExe := lpm.MeasureCPIexe(cfg.Cores[0].CPU, gen, 3, 20000)

	// 3. Build the chip and run the measured-window protocol: warm up
	// 60000 instructions, reset counters, run a 20000-instruction window.
	chip := lpm.NewChip(cfg)
	// (WarmUp's error is a cancelled context or tripped watchdog; this
	// chip has neither attached.)
	_ = chip.WarmUp(60000, lpm.WarmInstructions, false, 50_000_000)
	chip.ResetCounters()
	chip.Run(20000, 50_000_000)

	// 4. Read the measurement: all C-AMAT parameters at L1/L2, the memory
	// APC, and the core's stall/overlap counters.
	m := chip.Measure(0, cpiExe)

	fmt.Printf("workload: %s\n", workload)
	fmt.Printf("C-AMAT1 = %.3f   C-AMAT2 = %.3f   (AMAT would ignore concurrency)\n",
		m.CAMAT1, m.CAMAT2)
	fmt.Printf("%s   eta = %.4f\n", lpm.FormatLPMR(m), m.Eta())
	fmt.Printf("thresholds: T1(1%%) = %.3f, T1(10%%) = %.3f\n", m.T1(1), m.T1(10))
	fmt.Printf("data stall/instr: model = %.4f, measured = %.4f (%.1f%% of CPIexe)\n",
		m.StallEq12(), m.MeasuredStall, 100*m.MeasuredStall/cpiExe)

	if m.LPMR1() <= m.T1(10) {
		fmt.Println("=> layer 1 already matches at the coarse (10%) target")
	} else {
		fmt.Println("=> layer 1 mismatched: the LPM algorithm would optimize L1",
			"(and L2 too if LPMR2 > T2)")
	}
}
