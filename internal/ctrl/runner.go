package ctrl

// SimRunner: the production Runner. One run is lpmrun's single-workload
// pipeline — lpm.RunSingle on the default single-core chip, obs enabled,
// the windowed sampler publishing every closed window — producing the
// document lpmrun -json emits.

import (
	"context"
	"encoding/json"

	"lpm"
)

// SimRunner executes runs on the simulator.
type SimRunner struct{}

// Run implements Runner.
func (SimRunner) Run(ctx context.Context, spec RunSpec, hub *Hub) (json.RawMessage, error) {
	res, runErr := lpm.RunSingle(ctx, lpm.SingleRun{
		Tool:         "lpmserve",
		Workload:     spec.Workload,
		Instructions: spec.Instructions,
		Warmup:       spec.Warmup,
		WarmupFast:   spec.WarmupFast,
		Watchdog:     spec.Watchdog,
		TSWindow:     spec.TSWindow,
		Live:         hub,
	})
	if res == nil {
		return nil, runErr
	}
	doc, err := json.MarshalIndent(res.Report, "", "  ")
	if err != nil {
		return nil, err
	}
	return doc, runErr
}
