package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"lpm"
	"lpm/internal/parallel"
	"lpm/internal/resilience"
)

// reportArgs is the command line of one lpmreport process. The report
// has no seed flag — its inputs are the paper's fixed experiments — so
// every seed measures the same work; smoke runs select the cheapest
// simulation-backed experiment.
func reportArgs(rc *runCtx, extra ...string) []string {
	args := []string{"-quick", "-json"}
	if rc.smoke {
		args = append(args, "-experiment", "table1")
	}
	return append(args, extra...)
}

// reportExperiments is the experiment list reportArgs selects.
func reportExperiments(rc *runCtx) []string {
	if rc.smoke {
		return []string{"table1"}
	}
	return lpm.ReportExperiments()
}

// checkReport verifies one report document: it decodes, is complete,
// and holds the number of experiments asked for. It returns the SHA-256
// the run records, so two runs can be compared by eye.
func checkReport(res *result, what string, doc []byte, experiments int) string {
	sum := fmt.Sprintf("%x", sha256.Sum256(doc))
	rep, err := lpm.DecodeReport(doc)
	switch {
	case err != nil:
		res.fail("%s: %v", what, err)
	case rep.Partial:
		res.fail("%s: partial report, aborted %v", what, rep.Aborted)
	case len(rep.Experiments) != experiments:
		res.fail("%s: %d experiments, want %d", what, len(rep.Experiments), experiments)
	}
	return sum
}

// runReportQuick is the report_quick workload.
func runReportQuick(rc *runCtx) error {
	for i := 0; i < setupRepeats; i++ {
		if err := rc.timeSetup(func() error { return buildBinaries(rc, "lpmreport") }); err != nil {
			return err
		}
	}
	if rc.traced {
		return runReportTraced(rc)
	}
	workers := fmt.Sprint(runtime.NumCPU())
	var walls []float64
	var rss float64
	var sums []string
	begin := time.Now()
	// One cold report takes most of a ten-second run, so a run usually
	// holds a single sample; another starts only while it would still
	// end within a quarter over the budget.
	for len(walls) == 0 || time.Since(begin).Seconds()+median(walls)/1e3 <= 1.25*rc.seconds {
		rc.res.ops(1)
		pr, err := runProc(rc, "lpmreport", reportArgs(rc, "-workers", workers)...)
		if err != nil {
			rc.res.fail("cold report: %v", err)
			break
		}
		sums = append(sums, checkReport(rc.res, "cold report", pr.stdout, len(reportExperiments(rc))))
		if sums[len(sums)-1] != sums[0] {
			rc.res.fail("two cold reports differ: %s vs %s", sums[0], sums[len(sums)-1])
		}
		walls = append(walls, pr.wall.Seconds()*1e3)
		rss = max(rss, pr.rssMB)
	}
	if len(walls) == 0 {
		return fmt.Errorf("no cold report completed: %v", rc.res.problems)
	}
	setFastest(rc.res, walls)
	rc.res.labels["op_ms_p50"] += ", sha256 " + sums[0][:16]
	rc.res.set("mem_mb", rss)
	return nil
}

// runReportTraced is the traced pass: the report built in this process
// one experiment at a time (the spans), the same report from a cold and
// from a resumed lpmreport process (the identity check), and the
// parallel, checkpoint and encode kernels around them.
func runReportTraced(rc *runCtx) error {
	res := rc.res
	ctx := context.Background()
	names := reportExperiments(rc)
	defer lpm.SetWorkers(0)

	// Cold and warm processes. The cold run writes the checkpoint the
	// warm runs resume.
	ckpt := filepath.Join(rc.tmp, "report.ckpt")
	res.ops(1)
	start := time.Now()
	cold, err := runProc(rc, "lpmreport", reportArgs(rc, "-workers", "2", "-checkpoint", ckpt)...)
	if err != nil {
		return err
	}
	rc.spans.add("lpmreport.cold", "report-cold", "", start, time.Now(), 0)
	coldSum := checkReport(res, "cold report", cold.stdout, len(names))
	var warm []float64
	for i := 0; i < 3; i++ {
		res.ops(1)
		start = time.Now()
		pr, err := runProc(rc, "lpmreport", reportArgs(rc, "-workers", "2", "-resume", ckpt)...)
		if err != nil {
			res.fail("warm report: %v", err)
			continue
		}
		rc.spans.add("lpmreport.warm", fmt.Sprintf("report-warm-%d", i), "", start, time.Now(), 0)
		if !bytes.Equal(pr.stdout, cold.stdout) {
			res.fail("warm report differs from cold: %s vs %s", checkReport(res, "warm report", pr.stdout, len(names)), coldSum)
			continue
		}
		warm = append(warm, pr.wall.Seconds())
	}
	if len(warm) == 0 {
		return fmt.Errorf("no warm report completed: %v", res.problems)
	}
	res.setMedian("resilience.report_warm_s", warm)

	// In process, two workers, one experiment at a time from empty
	// caches — the way lpmreport -checkpoint runs them — with a span per
	// experiment. The merged document must equal the processes' bytes.
	build := func(workers int, id string) (*lpm.Report, map[string]float64, error) {
		lpm.SetWorkers(workers)
		lpm.ResetSimCaches()
		var rep *lpm.Report
		walls := map[string]float64{}
		whole := time.Now()
		for _, name := range names {
			start := time.Now()
			r, err := lpm.BuildReportCtx(ctx, lpm.ReportOptions{Scale: lpm.QuickScale(), Experiments: []string{name}})
			if err != nil {
				return nil, nil, err
			}
			end := time.Now()
			walls[name] = end.Sub(start).Seconds()
			rc.spans.add("experiment."+name, id, "report."+id, start, end, 0)
			if rep == nil {
				rep = r
			} else {
				rep.Experiments = append(rep.Experiments, r.Experiments...)
			}
		}
		rc.spans.add("report."+id, id, "", whole, time.Now(), 0)
		return rep, walls, nil
	}
	res.ops(1)
	rep, w2, err := build(2, "w2")
	if err != nil {
		return err
	}
	hits, misses := lpm.SimCacheStats()
	res.set("parallel.memo_hits", float64(hits))
	res.set("parallel.memo_misses", float64(misses))
	for _, e := range [][2]string{
		{"fig1", "lpm.fig1_s"}, {"table1", "lpm.table1_s"}, {"identities", "lpm.identities_s"},
		{"timeline", "lpm.timeline_s"}, {"casestudy1", "explore.casestudy1_s"},
		{"fig67", "sched.fig67_s"}, {"fig8", "sched.fig8_s"}, {"interval", "interval.study_s"},
	} {
		res.set(e[1], w2[e[0]]) // 0 for an experiment a smoke run leaves out
	}

	var encode []float64
	var doc bytes.Buffer
	for i := 0; i < 5; i++ {
		doc.Reset()
		start := time.Now()
		enc := json.NewEncoder(&doc)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		encode = append(encode, time.Since(start).Seconds()*1e3)
	}
	res.setMedian("lpm.encode_ms", encode)
	if !bytes.Equal(doc.Bytes(), cold.stdout) {
		res.fail("report built in process differs from the lpmreport process: %s vs %s",
			checkReport(res, "in-process report", doc.Bytes(), len(names)), coldSum)
	}

	// Checkpoint save and load of the memo this build left, under the
	// run key the cold process stamped on its own checkpoint.
	var stamped lpm.Checkpoint
	if err := resilience.LoadCheckpoint(ckpt, &stamped); err != nil {
		return err
	}
	mine := filepath.Join(rc.tmp, "bench.ckpt")
	var save, load []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := lpm.SaveMemoCheckpoint(mine, "lpmreport", stamped.Key); err != nil {
			return err
		}
		save = append(save, time.Since(start).Seconds()*1e3)
	}
	for i := 0; i < 3; i++ {
		lpm.ResetSimCaches()
		start := time.Now()
		if _, err := lpm.LoadMemoCheckpoint(mine, stamped.Key); err != nil {
			return err
		}
		load = append(load, time.Since(start).Seconds()*1e3)
	}
	res.setMedian("resilience.ckpt_save_ms", save)
	res.setMedian("resilience.ckpt_load_ms", load)

	// parallel.memo_hit_ns: one hit on a memo, the unit a warm report is
	// made of.
	memo := parallel.NewMemo[int]()
	one := func() (int, error) { return 1, nil }
	if _, err := memo.Do("k", one); err != nil {
		return err
	}
	const lookups = 20_000
	var hit []float64
	for rep := 0; rep < 9; rep++ {
		start := time.Now()
		for i := 0; i < lookups; i++ {
			if v, _ := memo.Do("k", one); v != 1 {
				res.fail("memo hit returned %d", v)
			}
		}
		hit = append(hit, float64(time.Since(start))/lookups)
	}
	res.setMedian("parallel.memo_hit_ns", hit)

	// parallel.report_speedup_w2: the same build on one worker.
	res.ops(1)
	_, w1, err := build(1, "w1")
	if err != nil {
		return err
	}
	var t1, t2 float64
	for _, name := range names {
		t1 += w1[name]
		t2 += w2[name]
	}
	res.set("parallel.report_speedup_w2", t1/t2)
	return nil
}
