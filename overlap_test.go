package lpm

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"lpm/internal/parallel"
	"lpm/internal/sched"
)

// BuildReportCtx runs its experiments at once under one -workers
// budget. The overlap must be invisible in the document and must keep
// the interruption record's shape: these tests pin both.

var overlapExperiments = []string{"fig1", "table1", "casestudy1", "timeline"}

// overlapScale keeps the four experiments to about a second serially.
var overlapScale = Scale{Warmup: 20000, Window: 5000}

func TestOverlappedReportIdenticalAcrossWorkers(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()
	var docs [][]byte
	for _, w := range []int{1, 2, 4} {
		SetWorkers(w)
		ResetSimCaches()
		var delivered []string
		rep, err := BuildReportCtx(bg, ReportOptions{Scale: overlapScale, Experiments: overlapExperiments,
			OnExperiment: func(er ExperimentReport) error { delivered = append(delivered, er.Name); return nil }})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Partial || !reflect.DeepEqual(delivered, overlapExperiments) {
			t.Fatalf("workers %d: partial=%v, delivered %v, want every experiment in request order", w, rep.Partial, delivered)
		}
		doc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	for i, w := range []int{2, 4} {
		if string(docs[i+1]) != string(docs[0]) {
			t.Fatalf("report at -workers %d differs from -workers 1", w)
		}
	}
}

// Cancelling on the first delivered experiment, while the others still
// run, keeps the serial shape: the delivered prefix is completed, the
// first undelivered experiment keeps its cells and is aborted with
// everything after it, and nothing after it is delivered or kept.
func TestOverlappedReportCancelAfterFirstDelivery(t *testing.T) {
	defer ResetSimCaches()
	ResetSimCaches()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered []string
	rep, err := BuildReportCtx(ctx, ReportOptions{Scale: overlapScale, Experiments: overlapExperiments,
		OnExperiment: func(er ExperimentReport) error {
			delivered = append(delivered, er.Name)
			cancel()
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delivered, []string{"fig1"}) {
		t.Fatalf("delivered %v after cancelling on fig1, want [fig1]", delivered)
	}
	if !rep.Partial || !reflect.DeepEqual(rep.Completed, []string{"fig1"}) ||
		!reflect.DeepEqual(rep.Aborted, []string{"table1", "casestudy1", "timeline"}) {
		t.Fatalf("partial=%v completed=%v aborted=%v, want completed [fig1] and the rest aborted",
			rep.Partial, rep.Completed, rep.Aborted)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].Fig1 == nil ||
		rep.Experiments[1].Name != "table1" || len(rep.Experiments[1].Table1) != 5 {
		t.Fatalf("experiments = %+v, want fig1 and table1's five (partial) cells", rep.Experiments)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(data); err != nil {
		t.Fatalf("partial overlapped report does not decode: %v", err)
	}
}

// An OnExperiment error stops the build: it is returned, and nothing
// after the failing delivery is handed over.
func TestOverlappedReportHookErrorStops(t *testing.T) {
	defer ResetSimCaches()
	var delivered []string
	_, err := BuildReportCtx(bg, ReportOptions{Scale: overlapScale, Experiments: overlapExperiments,
		OnExperiment: func(er ExperimentReport) error {
			delivered = append(delivered, er.Name)
			if er.Name == "table1" {
				return context.Canceled
			}
			return nil
		}})
	if err != context.Canceled || !reflect.DeepEqual(delivered, []string{"fig1", "table1"}) {
		t.Fatalf("err = %v, delivered %v; want the hook's error after [fig1 table1]", err, delivered)
	}
}

// fig8Doc builds the report document of Fig. 8 alone.
func fig8Doc(t *testing.T) []byte {
	t.Helper()
	rep, err := BuildReportCtx(bg, ReportOptions{Scale: overlapScale, Experiments: []string{"fig8"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || len(rep.Experiments) != 1 || len(rep.Experiments[0].Fig8) != 5 {
		t.Fatalf("fig8 report: partial=%v, experiments %+v, want five rows", rep.Partial, rep.Experiments)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Fig8Ctx overlaps its stages (shared runs, profile table, alone IPCs);
// the rows must not depend on how they interleave.
func TestFig8OverlapIdenticalAcrossWorkersAndShards(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()
	var docs [][]byte
	for _, w := range []int{1, 2, 4} {
		SetWorkers(w)
		ResetSimCaches()
		docs = append(docs, fig8Doc(t))
	}
	SetWorkers(2)
	ResetSimCaches()
	lf, _ := startFabricWithSlots(t, 1, 1)
	docs = append(docs, fig8Doc(t))
	closeFabric(t, lf)
	for i, run := range []string{"-workers 2", "-workers 4", "sharded over two workers"} {
		if string(docs[i+1]) != string(docs[0]) {
			t.Fatalf("fig8 at %s differs from -workers 1 near line %d", run, firstDiffLine(docs[i+1], docs[0]))
		}
	}
}

// A cancel while Fig. 8's profile table is being built keeps the shape
// the serial stages gave: fig8 is aborted with no rows and no error
// cell, nothing is completed, and the document decodes.
func TestFig8CancelDuringProfileTable(t *testing.T) {
	defer func() { SetWorkers(0); ResetSimCaches() }()
	SetWorkers(1)
	ResetSimCaches()
	profiles := func() int {
		snap, err := parallel.ExportMemos()
		if err != nil {
			t.Error(err)
			return 0
		}
		var entries map[string]json.RawMessage
		if err := json.Unmarshal(snap[sched.ProfileKind], &entries); err != nil {
			return 0
		}
		return len(entries)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	go func() {
		// At -workers 1 the table's other 63 runs are still to come once
		// the first one is memoised.
		for ctx.Err() == nil && profiles() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep, err := BuildReportCtx(ctx, ReportOptions{Scale: overlapScale, Experiments: []string{"fig8"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := profiles(); n == 0 || n >= 64 {
		t.Fatalf("%d of 64 profile runs memoised: the cancel did not land during the table", n)
	}
	if !rep.Partial || len(rep.Completed) != 0 || !reflect.DeepEqual(rep.Aborted, []string{"fig8"}) {
		t.Fatalf("partial=%v completed=%v aborted=%v, want fig8 aborted and nothing completed",
			rep.Partial, rep.Completed, rep.Aborted)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "fig8" ||
		rep.Experiments[0].Fig8 != nil || rep.Experiments[0].Err != "" {
		t.Fatalf("experiments = %+v, want one fig8 entry with no rows and no error", rep.Experiments)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(data); err != nil {
		t.Fatalf("partial fig8 report does not decode: %v", err)
	}
}
