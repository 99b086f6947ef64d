package lpm

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
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
