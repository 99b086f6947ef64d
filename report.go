package lpm

// This file defines the machine-readable run output: versioned JSON
// documents mirroring the experiment harnesses, consumed by
// `lpmreport -json` and `lpmexplore -json` so downstream tooling can
// diff runs. The human-facing text reports are renderings of these same
// documents; the JSON schema is the stable contract (bump the schema
// string on any incompatible shape change).

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
	"lpm/internal/parallel"
)

// Report schema identifiers.
const (
	// ReportSchema versions the lpmreport -json document. v2 adds the
	// "timeline" experiment (windowed C-AMAT/LPMR series with stall
	// attribution); every v1 field is unchanged, so v1 documents remain
	// decodable — see DecodeReport.
	ReportSchema = "lpm-report/v2"
	// ReportSchemaV1 is the previous report schema, still accepted by
	// DecodeReport.
	ReportSchemaV1 = "lpm-report/v1"
	// ExploreSchema versions the lpmexplore -json document.
	ExploreSchema = "lpm-explore/v1"
)

// IntervalSeed is the fixed Monte Carlo seed of the interval study, the
// only stochastic input of the report; it is recorded in the document so
// two reports are comparable.
const IntervalSeed = 42

// Report is the versioned document `lpmreport -json` emits.
type Report struct {
	// Schema is ReportSchema.
	Schema string `json:"schema"`
	// Tool names the producing command.
	Tool string `json:"tool"`
	// Scale records the simulation budgets used.
	Scale Scale `json:"scale"`
	// Seed is the interval study's Monte Carlo seed (the simulations
	// themselves are deterministic).
	Seed uint64 `json:"seed"`
	// Experiments holds one entry per experiment run, in request order.
	Experiments []ExperimentReport `json:"experiments"`
	// Partial is true when the run was interrupted (signal or context
	// cancellation) before every requested experiment finished. Completed
	// and Aborted then list the experiment keys on each side of the cut;
	// an interrupted experiment appears in both Experiments (with
	// whatever cells finished) and Aborted. Uninterrupted documents omit
	// all three fields, so the schema string is unchanged.
	Partial   bool     `json:"partial,omitempty"`
	Completed []string `json:"completed,omitempty"`
	Aborted   []string `json:"aborted,omitempty"`
}

// ExperimentReport is one experiment's data; exactly one payload field
// is non-empty, keyed by Name.
type ExperimentReport struct {
	// Name is the experiment key (fig1, table1, casestudy1, fig67, fig8,
	// interval, identities, timeline).
	Name string `json:"name"`
	// Err records an experiment-level failure; the payload fields are
	// then empty. Per-cell failures stay inside the payloads instead
	// (e.g. Table1JSON.Err), leaving the healthy cells intact.
	Err string `json:"err,omitempty"`

	Fig1       *Fig1JSON        `json:"fig1,omitempty"`
	Table1     []Table1JSON     `json:"table1,omitempty"`
	CaseStudy1 []CaseStudyJSON  `json:"casestudy1,omitempty"`
	Fig67      *Fig67JSON       `json:"fig67,omitempty"`
	Fig8       []Fig8Row        `json:"fig8,omitempty"`
	Interval   []IntervalRow    `json:"interval,omitempty"`
	Identities []IdentityReport `json:"identities,omitempty"`
	Timeline   []TimelineJSON   `json:"timeline,omitempty"`
}

// TimelineJSON is one configuration's windowed time series (schema v2).
type TimelineJSON struct {
	// Name and Point identify the Table I configuration measured.
	Name  string `json:"name"`
	Point string `json:"point"`
	// CPIexe is the perfect-cache CPI the per-window LPMRs divide by.
	CPIexe float64 `json:"cpi_exe"`
	// LPMR1 is the whole interval's LPMR1, the mean the windows vary
	// around.
	LPMR1 float64 `json:"lpmr1"`
	// Series is the windowed C-AMAT/LPMR timeline with per-core stall
	// attribution.
	Series *timeseries.Series `json:"series"`
	// Err marks a failed cell; Series is then nil.
	Err string `json:"err,omitempty"`
}

// Fig1JSON carries the Fig. 1 worked example, paper vs measured.
type Fig1JSON struct {
	Paper    Fig1Paper `json:"paper"`
	Measured Fig1Paper `json:"measured"`
	// InvAPC is 1/APC, the Eq. (3) cross-check against C-AMAT.
	InvAPC float64 `json:"inv_apc"`
}

// Table1JSON is one Table I row with derived quantities evaluated.
type Table1JSON struct {
	// Name is the configuration label A..E; Point its rendering.
	Name  string `json:"name"`
	Point string `json:"point"`
	// LPMR and PaperLPMR are measured vs paper-reported LPMR1/2/3.
	LPMR      [3]float64 `json:"lpmr"`
	PaperLPMR [3]float64 `json:"paper_lpmr"`
	IPC       float64    `json:"ipc"`
	CPIexe    float64    `json:"cpi_exe"`
	Eta       float64    `json:"eta"`
	// StallModel is Eq. (12); StallMeasured the simulator ground truth.
	StallModel    float64 `json:"stall_model"`
	StallMeasured float64 `json:"stall_measured"`
	// Layers is the per-layer metrics snapshot (nil unless the report
	// ran with observability enabled).
	Layers *obs.Snapshot `json:"layers,omitempty"`
	// Err marks a failed cell (cancelled or livelocked); the metric
	// fields are then zero.
	Err string `json:"err,omitempty"`
}

// table1Row renders one measured configuration — or, with errMsg set,
// its failed cell — as a Table I row; the table1 experiment, lpmrun -json
// and the control plane all build their rows here.
func table1Row(name, point string, paper [3]float64, m Measurement, errMsg string) Table1JSON {
	if errMsg != "" {
		return Table1JSON{Name: name, Point: point, PaperLPMR: paper, Err: errMsg}
	}
	return Table1JSON{
		Name:          name,
		Point:         point,
		LPMR:          [3]float64{m.LPMR1(), m.LPMR2(), m.LPMR3()},
		PaperLPMR:     paper,
		IPC:           m.IPC,
		CPIexe:        m.CPIexe,
		Eta:           m.Eta(),
		StallModel:    m.StallEq12(),
		StallMeasured: m.MeasuredStall,
		Layers:        m.Obs,
	}
}

// CaseStudyJSON summarises one grain's LPM-guided exploration.
type CaseStudyJSON struct {
	Grain       string  `json:"grain"`
	Steps       int     `json:"steps"`
	Evaluations int     `json:"evaluations"`
	SpaceSize   int     `json:"space_size"`
	FinalPoint  string  `json:"final_point"`
	FinalCost   float64 `json:"final_cost"`
	FinalLPMR1  float64 `json:"final_lpmr1"`
	FinalStall  float64 `json:"final_stall"`
	FinalCPIexe float64 `json:"final_cpi_exe"`
	Converged   bool    `json:"converged"`
	MetTarget   bool    `json:"met_target"`
}

// Fig67JSON carries the Fig. 6/7 profiling table.
type Fig67JSON struct {
	// Sizes are the profiled L1 capacities in bytes, ascending.
	Sizes []uint64 `json:"sizes"`
	// Workloads lists profile names in table order.
	Workloads []string `json:"workloads"`
	// APC1, APC2 and IPC are indexed [workload][size index].
	APC1 map[string][]float64 `json:"apc1"`
	APC2 map[string][]float64 `json:"apc2"`
	IPC  map[string][]float64 `json:"ipc"`
}

// ReportOptions parameterise BuildReportCtx.
type ReportOptions struct {
	// Scale sets the simulation budgets (zero value: FullScale).
	Scale Scale
	// Experiments selects which experiments run; nil or empty means all.
	Experiments []string
	// Observe enables per-layer metrics snapshots on the Table I rows.
	Observe bool
	// IntervalSamples overrides the interval study's Monte Carlo sample
	// count (0 = default).
	IntervalSamples int
	// OnExperiment, when set, receives each finished experiment in
	// request order, before the next is delivered: the hook a caller
	// renders or checkpoints from while later experiments still run. Its
	// error stops the build and is returned.
	OnExperiment func(ExperimentReport) error
}

// ReportExperiments lists the valid experiment keys in run order.
func ReportExperiments() []string {
	return []string{"fig1", "table1", "casestudy1", "fig67", "fig8", "interval", "identities", "timeline"}
}

// MaxReportSize bounds the documents DecodeReport accepts. Real reports
// are a few megabytes at most; anything near the cap is corrupt or
// hostile input, and refusing it keeps the decoder from ballooning on a
// damaged file.
const MaxReportSize = 256 << 20

// DecodeReport parses a JSON report document, accepting both the current
// schema and v1 (which simply lacks the timeline payload). Unknown or
// missing schema strings are an error: a silent best-effort decode would
// make report diffs meaningless. Empty, truncated, and oversized inputs
// get distinct errors so an interrupted write is diagnosable.
func DecodeReport(data []byte) (*Report, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("decode report: empty input (interrupted write?)")
	}
	if len(data) > MaxReportSize {
		return nil, fmt.Errorf("decode report: %d bytes exceeds %d byte cap", len(data), MaxReportSize)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	switch rep.Schema {
	case ReportSchema, ReportSchemaV1:
		return &rep, nil
	case "":
		return nil, fmt.Errorf("decode report: missing schema field")
	default:
		return nil, fmt.Errorf("decode report: unsupported schema %q (supported: %s, %s)",
			rep.Schema, ReportSchema, ReportSchemaV1)
	}
}

// BuildReportCtx runs the selected experiments and assembles the
// versioned JSON document. The experiments start at once and share the
// -workers budget (see parallel.Pool), so one experiment's batch tail or
// serial walk does not leave cores idle while the next waits its turn;
// each finished experiment is handed to opts.OnExperiment in request
// order, and the document keeps request order too. When ctx is cancelled
// mid-run the function still returns a valid, decodable document:
// Partial is set, Completed lists the experiments delivered before the
// cancellation, and Aborted lists the first undelivered one (whose
// partial cells are kept) plus everything after it, finished or not.
// Deterministic per-cell failures (livelocks, simulator faults) never
// abort the document — they land in the matching payload's Err field and
// the run continues. Unknown experiment names remain a hard error, and
// so does an OnExperiment error, which cancels the experiments still
// running.
func BuildReportCtx(ctx context.Context, opts ReportOptions) (*Report, error) {
	s := opts.Scale
	if s == (Scale{}) {
		s = FullScale()
	}
	want := opts.Experiments
	if len(want) == 0 {
		want = ReportExperiments()
	}
	for _, name := range want {
		if !slices.Contains(ReportExperiments(), name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %v)", name, ReportExperiments())
		}
	}
	rep := &Report{Schema: ReportSchema, Tool: "lpmreport", Scale: s, Seed: IntervalSeed}
	var completed []string
	abort := func(i int) (*Report, error) {
		rep.Partial = true
		rep.Completed = completed
		rep.Aborted = slices.Clone(want[i:])
		return rep, nil
	}
	if ctx.Err() != nil {
		return abort(0)
	}

	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	results := make([]chan ExperimentReport, len(want))
	for i, name := range want {
		results[i] = make(chan ExperimentReport, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			er, err := buildExperiment(parallel.WithPriority(runCtx, reportPriority[name]), name, s, opts)
			// A failure while ctx is cancelled may be the cancellation
			// itself (for example through casestudy1's sequential walk),
			// which the abort below records; any other failure is
			// deterministic and becomes a recorded cell.
			if err != nil && ctx.Err() == nil {
				er.Err = err.Error()
			}
			results[i] <- er
		}()
	}
	for i, name := range want {
		er := <-results[i]
		rep.Experiments = append(rep.Experiments, er)
		if ctx.Err() != nil {
			// Cancelled before delivery: the payload holds whatever cells
			// finished, so keep it but list the experiment as aborted.
			return abort(i)
		}
		if opts.OnExperiment != nil {
			if err := opts.OnExperiment(er); err != nil {
				return nil, err
			}
		}
		completed = append(completed, name)
	}
	return rep, nil
}

// reportPriority orders the experiments' claims on the shared budget,
// longest dependent chain first: casestudy1 is two walks of dependent
// evaluations (13 coarse, then 17 fine) and fig8 three stages
// (profiles, alone IPCs, five 16-core evaluations), while the others
// are flat batches that fill the gaps the chains leave. At equal
// priority the chains' last stages end up running alone, with a core
// idle beside them. table1, five runs, ranks with casestudy1 so the
// sections before the chains are delivered, rendered and checkpointed
// within the first second instead of after the chains.
var reportPriority = map[string]int{"table1": 2, "casestudy1": 2, "fig8": 1}

// buildExperiment runs one experiment and assembles its report entry.
// Per-cell failures are recorded inside the payload; the returned error
// covers unknown names and whole-experiment failures (and may accompany
// a partially filled entry).
func buildExperiment(ctx context.Context, name string, s Scale, opts ReportOptions) (ExperimentReport, error) {
	er := ExperimentReport{Name: name}
	switch name {
	case "fig1":
		p := Fig1()
		er.Fig1 = &Fig1JSON{
			Paper: Fig1Reference(),
			Measured: Fig1Paper{
				CAMAT: p.CAMAT(), AMAT: p.AMAT(), CH: p.CH(),
				CM: p.CM(), PAMP: p.PAMP(), PMR: p.PMR(),
			},
		}
		if apc := p.APC(); apc > 0 {
			er.Fig1.InvAPC = 1 / apc
		}
	case "table1":
		for _, r := range Table1Ctx(ctx, s, opts.Observe) {
			er.Table1 = append(er.Table1, table1Row(r.Name, r.Point.String(), r.PaperLPMR, r.M, r.Err))
		}
	case "casestudy1":
		// The fine walk revisits the coarse walk's points through the
		// memo, so the two grains run as one serial chain on one token.
		err := parallel.Hold(ctx, func(ctx context.Context) error {
			for _, g := range []Grain{CoarseGrain, FineGrain} {
				res, err := CaseStudyICtx(ctx, g, s)
				if err != nil {
					return fmt.Errorf("casestudy1 %s: %w", g.String(), err)
				}
				er.CaseStudy1 = append(er.CaseStudy1, CaseStudyJSON{
					Grain:       g.String(),
					Steps:       len(res.Algorithm.Steps),
					Evaluations: res.Evaluations,
					SpaceSize:   res.SpaceSize,
					FinalPoint:  res.Final.String(),
					FinalCost:   res.Final.Cost(),
					FinalLPMR1:  res.Algorithm.Final.LPMR1(),
					FinalStall:  res.Algorithm.Final.MeasuredStall,
					FinalCPIexe: res.Algorithm.Final.CPIexe,
					Converged:   res.Algorithm.Converged,
					MetTarget:   res.Algorithm.MetTarget,
				})
			}
			return nil
		})
		if err != nil {
			return er, err
		}
	case "fig67":
		res, err := Fig67Ctx(ctx, s)
		if err != nil {
			return er, fmt.Errorf("fig67: %w", err)
		}
		t := res.Table
		er.Fig67 = &Fig67JSON{
			Sizes: t.Sizes, Workloads: t.Workloads,
			APC1: t.APC1, APC2: t.APC2, IPC: t.IPC,
		}
	case "fig8":
		rows, err := Fig8Ctx(ctx, s)
		if err != nil {
			return er, fmt.Errorf("fig8: %w", err)
		}
		er.Fig8 = rows
	case "interval":
		rows, err := IntervalStudy(ctx, opts.IntervalSamples)
		if err != nil {
			return er, fmt.Errorf("interval: %w", err)
		}
		er.Interval = rows
	case "identities":
		er.Identities = IdentitiesCtx(ctx, s)
	case "timeline":
		for _, r := range TimelineStudyCtx(ctx, s) {
			// A failed cell has a zero M: cpi_exe and lpmr1 0, series null.
			er.Timeline = append(er.Timeline, TimelineJSON{Name: r.Name, Point: r.Point.String(),
				CPIexe: r.M.CPIexe, LPMR1: r.M.LPMR1(), Series: r.M.Timeline, Err: r.Err})
		}
	default:
		return er, fmt.Errorf("unknown experiment %q (valid: %v)", name, ReportExperiments())
	}
	return er, nil
}

// ExploreReport is the versioned document `lpmexplore -json` emits.
type ExploreReport struct {
	// Schema is ExploreSchema.
	Schema string `json:"schema"`
	// Workload, Grain and Start record the run's inputs.
	Workload string `json:"workload"`
	Grain    string `json:"grain"`
	Start    string `json:"start"`
	// Warmup and Window are the per-evaluation instruction budgets.
	Warmup uint64 `json:"warmup"`
	Window uint64 `json:"window"`
	// SpaceSize is the full design-space cardinality; Evaluations the
	// simulations actually run.
	SpaceSize   int `json:"space_size"`
	Evaluations int `json:"evaluations"`
	// Steps traces the algorithm walk.
	Steps []ExploreStep `json:"steps"`
	// FinalPoint and FinalCost describe the configuration reached.
	FinalPoint string  `json:"final_point"`
	FinalCost  float64 `json:"final_cost"`
	// Final is the last measurement (carrying a Layers snapshot when
	// the run observed).
	Final     Measurement `json:"final"`
	Converged bool        `json:"converged"`
	MetTarget bool        `json:"met_target"`
	// Partial is true when the walk was interrupted before finishing;
	// Steps then holds the completed prefix and Error records why
	// (typically the context cancellation or a livelock diagnostic).
	// Uninterrupted documents omit both fields.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
}

// ExploreStep is one algorithm iteration in the JSON trace.
type ExploreStep struct {
	Case    string     `json:"case"`
	LPMR    [3]float64 `json:"lpmr"`
	T1      float64    `json:"t1"`
	T2      float64    `json:"t2"`
	T2Valid bool       `json:"t2_valid"`
	Stall   float64    `json:"stall"`
}

// NewExploreReport assembles the lpmexplore JSON document from a
// completed run.
func NewExploreReport(workload, grain, start string, tgt *HardwareTarget, res Result, final DesignPoint) *ExploreReport {
	rep := &ExploreReport{
		Schema:      ExploreSchema,
		Workload:    workload,
		Grain:       grain,
		Start:       start,
		Warmup:      tgt.Warmup,
		Window:      tgt.Instructions,
		SpaceSize:   tgt.Space.Size(),
		Evaluations: tgt.Evaluations(),
		FinalPoint:  final.String(),
		FinalCost:   final.Cost(),
		Final:       res.Final,
		Converged:   res.Converged,
		MetTarget:   res.MetTarget,
	}
	for _, st := range res.Steps {
		rep.Steps = append(rep.Steps, ExploreStep{
			Case:    st.Case.String(),
			LPMR:    [3]float64{st.Before.LPMR1(), st.Before.LPMR2(), st.Before.LPMR3()},
			T1:      st.T1,
			T2:      st.T2,
			T2Valid: st.T2Valid,
			Stall:   st.Before.MeasuredStall,
		})
	}
	return rep
}
