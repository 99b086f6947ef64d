package lpm

import (
	"math"
	"testing"

	"lpm/internal/trace"
)

func TestFig1MatchesPaperExactly(t *testing.T) {
	p := Fig1()
	ref := Fig1Reference()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"C-AMAT", p.CAMAT(), ref.CAMAT},
		{"AMAT", p.AMAT(), ref.AMAT},
		{"CH", p.CH(), ref.CH},
		{"CM", p.CM(), ref.CM},
		{"pAMP", p.PAMP(), ref.PAMP},
		{"pMR", p.PMR(), ref.PMR},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPublicChipWorkflow(t *testing.T) {
	// The quickstart path: build a chip, run it, read C-AMAT and LPMRs.
	cfg := SingleCore("401.bzip2")
	gen, err := NewWorkload("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	cpiExe := MeasureCPIexe(cfg.Cores[0].CPU, gen, 3, 10000)
	ch := NewChip(cfg)
	ch.Run(10000, 5_000_000)
	m := ch.Measure(0, cpiExe)
	if m.LPMR1() <= 0 {
		t.Fatalf("LPMR1 = %v", m.LPMR1())
	}
	if FormatLPMR(m) == "" {
		t.Fatal("empty format")
	}
}

func TestWorkloadsEnumeration(t *testing.T) {
	ws := trace.ProfileNames()
	if len(ws) != 16 {
		t.Fatalf("%d workloads", len(ws))
	}
	if _, err := NewWorkload("does-not-exist"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for i := 1; i < len(ws); i++ {
		if ws[i-1] > ws[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestTable1QuickShape(t *testing.T) {
	rows := mustTable1(t, QuickScale(), false)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.PaperLPMR[0] == 0 {
			t.Fatalf("row %s missing paper reference", r.Name)
		}
	}
	// Headline shape: D closes most of A's mismatch, and stalls shrink.
	a, d := byName["A"], byName["D"]
	if d.M.LPMR1() >= a.M.LPMR1() {
		t.Fatalf("LPMR1 A=%.2f D=%.2f", a.M.LPMR1(), d.M.LPMR1())
	}
	if d.M.MeasuredStall >= a.M.MeasuredStall {
		t.Fatalf("stall A=%.3f D=%.3f", a.M.MeasuredStall, d.M.MeasuredStall)
	}
	// E trims hardware relative to D.
	e := byName["E"]
	if e.Point.Cost() >= d.Point.Cost() {
		t.Fatal("E not cheaper than D")
	}
}

func TestCaseStudyIQuick(t *testing.T) {
	res := mustCaseStudyI(t, CoarseGrain, QuickScale())
	if res.Evaluations == 0 {
		t.Fatal("no evaluations")
	}
	if res.SpaceSize != 1_000_000 {
		t.Fatalf("space size %d", res.SpaceSize)
	}
	frac := float64(res.Evaluations) / float64(res.SpaceSize)
	if frac > 0.001 {
		t.Fatalf("explored %.4f%% of the space — not guided", frac*100)
	}
	if len(res.Algorithm.Steps) == 0 {
		t.Fatal("no algorithm trace")
	}
}

func TestIntervalStudyMatchesPaper(t *testing.T) {
	rows := mustIntervalStudy(t, 100000)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Analytic-r.Paper) > 1e-6 {
			t.Errorf("%s: analytic %.4f vs paper %.2f", r.Scenario, r.Analytic, r.Paper)
		}
		if math.Abs(r.Simulated-r.Analytic) > 0.015 {
			t.Errorf("%s: simulated %.4f vs analytic %.4f", r.Scenario, r.Simulated, r.Analytic)
		}
	}
}

func TestIdentitiesOnLiveRuns(t *testing.T) {
	// gcc and mcf are low-coalescing workloads, where Eq. (4)'s serving
	// assumption (misses served at C-AMAT2 each) holds; streaming
	// workloads coalesce heavily and violate it (see EXPERIMENTS.md).
	for _, r := range IdentitiesCtx(bg, QuickScale(), "403.gcc", "429.mcf") {
		if r.Err != "" {
			t.Fatalf("identities %s: %s", r.Workload, r.Err)
		}
		// Eq. (3) is exact up to interval-boundary residue (accesses
		// straddling the warm-up counter reset).
		if r.CAMATvsInvAPC > 5e-3 {
			t.Errorf("%s: C-AMAT vs 1/APC differs by %g", r.Workload, r.CAMATvsInvAPC)
		}
		// Eq. (4) with the measured C-AMAT2 is approximate, and only
		// meaningful when the layer actually misses.
		if r.PMR1 >= 0.01 && r.RecursionRelErr > 0.6 {
			t.Errorf("%s: recursion error %.0f%%", r.Workload, r.RecursionRelErr*100)
		}
		// The stall model tracks the measured stall within a broad band.
		if r.StallMeasured > 0.01 {
			ratio := r.StallModel / r.StallMeasured
			if ratio < 0.2 || ratio > 5 {
				t.Errorf("%s: model stall %.3f vs measured %.3f", r.Workload, r.StallModel, r.StallMeasured)
			}
		}
	}
}

func TestFig1ReferenceValues(t *testing.T) {
	ref := Fig1Reference()
	if ref.CAMAT != 1.6 || ref.AMAT != 3.8 {
		t.Fatal("reference corrupted")
	}
}
