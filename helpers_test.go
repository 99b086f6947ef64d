package lpm

import (
	"context"
	"testing"
)

// The experiment API is ctx-first and failure-isolating; these helpers
// give the tests the "background context, any failed cell is fatal"
// form the deleted ctx-less wrappers used to provide.

var bg = context.Background()

func mustTable1(tb testing.TB, s Scale, observe bool) []Table1Row {
	tb.Helper()
	rows := Table1Ctx(bg, s, observe)
	for _, r := range rows {
		if r.Err != "" {
			tb.Fatalf("table1 %s: %s", r.Name, r.Err)
		}
	}
	return rows
}

func mustTimeline(tb testing.TB, s Scale) []Table1Row {
	tb.Helper()
	rows := TimelineStudyCtx(bg, s)
	for _, r := range rows {
		if r.Err != "" {
			tb.Fatalf("timeline %s: %s", r.Name, r.Err)
		}
	}
	return rows
}

func mustCaseStudyI(tb testing.TB, g Grain, s Scale) CaseStudyIResult {
	tb.Helper()
	res, err := CaseStudyICtx(bg, g, s)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func mustIntervalStudy(tb testing.TB, samples int) []IntervalRow {
	tb.Helper()
	rows, err := IntervalStudy(bg, samples)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}
