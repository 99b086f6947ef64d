package lpm

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lpm/internal/explore"
	"lpm/internal/obs/timeseries"
	"lpm/internal/trace"
)

// reportScale keeps report-shape tests cheap: the simulations behind the
// timeline experiment are real but short.
func reportScale() Scale { return Scale{Warmup: 6000, Window: 4000} }

func TestDecodeReportRoundTripV2(t *testing.T) {
	rep, err := BuildReportCtx(bg, ReportOptions{
		Scale:           QuickScale(),
		Experiments:     []string{"fig1", "interval"},
		IntervalSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("BuildReport schema = %q, want %q", rep.Schema, ReportSchema)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	round, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(data) {
		t.Fatal("v2 document changed across a decode/encode round trip")
	}
}

func TestDecodeReportAcceptsV1(t *testing.T) {
	rep, err := BuildReportCtx(bg, ReportOptions{
		Scale:           QuickScale(),
		Experiments:     []string{"fig1"},
		IntervalSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A v1 document is the same shape minus the timeline payload; emulate
	// one by rewriting the schema string.
	rep.Schema = ReportSchemaV1
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("v1 document rejected: %v", err)
	}
	if got.Schema != ReportSchemaV1 {
		t.Fatalf("decoded schema = %q, want %q", got.Schema, ReportSchemaV1)
	}
	round, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(data) {
		t.Fatal("v1 document changed across a decode/encode round trip")
	}
}

func TestDecodeReportRejectsUnknownSchema(t *testing.T) {
	for _, doc := range []string{
		`{"schema":"lpm-report/v99"}`,
		`{"tool":"lpmreport"}`,
		`not json`,
	} {
		if _, err := DecodeReport([]byte(doc)); err == nil {
			t.Errorf("DecodeReport accepted %q", doc)
		}
	}
}

func TestReportTimelineExperiment(t *testing.T) {
	rep, err := BuildReportCtx(bg, ReportOptions{
		Scale:       reportScale(),
		Experiments: []string{"timeline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "timeline" {
		t.Fatalf("unexpected experiment envelope: %+v", rep.Experiments)
	}
	rows := rep.Experiments[0].Timeline
	if len(rows) != 2 {
		t.Fatalf("timeline experiment has %d rows, want 2 (A and E)", len(rows))
	}
	for _, r := range rows {
		if r.Series == nil || len(r.Series.Windows) == 0 {
			t.Fatalf("config %s: empty series", r.Name)
		}
		if r.CPIexe <= 0 {
			t.Fatalf("config %s: CPIexe not recorded", r.Name)
		}
		for i, w := range r.Series.Windows {
			for ci, st := range w.Stall {
				if st.Total() != w.Cycles() {
					t.Fatalf("config %s window %d core %d: stall sum %d != %d cycles",
						r.Name, i, ci, st.Total(), w.Cycles())
				}
			}
		}
		any := false
		for _, v := range r.Series.LPMR1Series() {
			if v > 0 {
				any = true
			}
		}
		if !any {
			t.Errorf("config %s: no window has LPMR1 > 0", r.Name)
		}
	}
}

// TestTimelineStallConservationTable1 asserts the stall-attribution
// conservation law on every Table I configuration: in every window of
// every row, the per-core buckets sum exactly to the window's cycles.
func TestTimelineStallConservationTable1(t *testing.T) {
	cfgs := explore.TableConfigs()
	s := reportScale()
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		tgt := explore.NewHardwareTarget(explore.DefaultSpace(), cfgs[name], trace.MustProfile("410.bwaves"))
		tgt.Warmup = s.Warmup
		tgt.Instructions = s.Window
		tgt.Timeline = true
		m, err := tgt.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if m.Timeline == nil || len(m.Timeline.Windows) == 0 {
			t.Fatalf("config %s: no timeline", name)
		}
		var agg timeseries.StallTree
		for i, w := range m.Timeline.Windows {
			for ci, st := range w.Stall {
				if st.Total() != w.Cycles() {
					t.Fatalf("config %s window %d core %d: stall sum %d != %d cycles (%+v)",
						name, i, ci, st.Total(), w.Cycles(), st)
				}
				agg.Add(st)
			}
		}
		if agg.Busy == 0 {
			t.Errorf("config %s: zero busy cycles attributed", name)
		}
	}
}

func TestReportExperimentsIncludeTimeline(t *testing.T) {
	if !strings.Contains(strings.Join(ReportExperiments(), ","), "timeline") {
		t.Fatal("timeline missing from ReportExperiments")
	}
}

// FuzzDecodeReport hammers the report decoder lpmdiff runs on
// user-supplied files: arbitrary bytes either decode or return an error,
// never panic, and an accepted document survives re-encoding — its
// encoding decodes to a Report that re-encodes to the same bytes and
// decodes deep-equal again. The comparison starts from the first
// re-encoding because an input may spell an empty payload list
// ("interval": []) that the encoder's omitempty drops: the decoded
// Report then holds an empty slice where the re-decoded one holds nil.
func FuzzDecodeReport(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "report_fig1_interval.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc1, rep1 := reencode(t, rep)
		enc2, rep2 := reencode(t, rep1)
		if !bytes.Equal(enc1, enc2) || !reflect.DeepEqual(rep1, rep2) {
			t.Fatalf("report changed across re-encoding:\n%s\n%s", enc1, enc2)
		}
	})
}

// reencode encodes an accepted report and decodes the encoding again.
func reencode(t *testing.T, rep *Report) ([]byte, *Report) {
	t.Helper()
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("accepted report does not re-encode: %v", err)
	}
	again, err := DecodeReport(enc)
	if err != nil {
		t.Fatalf("re-encoded report rejected: %v\n%s", err, enc)
	}
	return enc, again
}
