package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerTierDiscipline enforces the fast-forward contract the
// compiler cannot see (DESIGN.md §9): the Quiescent / NextEvent /
// AdvanceCycles component trio is pure accounting and must not touch
// observation APIs. During a quiescent jump counters advance in closed
// form; a Snapshot, Measure or obs emission taken from inside the jump
// would observe a cycle that is being skipped, and would diverge from
// the stepped run the jump must match bit-for-bit. (The other tier
// contract, that detailed-only Chip entry points open with
// requireDetailed, is pinned by TestTierGuards in internal/sim/chip.)
var analyzerTierDiscipline = &Analyzer{
	Name:  "tierdiscipline",
	Doc:   "fast-forward accrual (Quiescent/NextEvent/AdvanceCycles) must not touch observation APIs",
	Paths: []string{"internal/sim"},
	Run:   runTierDiscipline,
}

// observationCalls are method names that read or publish simulation
// state; calling one mid-fast-forward observes a skipped cycle.
var observationCalls = map[string]bool{
	"Snapshot":         true,
	"Measure":          true,
	"EnableTimeseries": true,
}

// fastForwardMethods are the component fast-forward surface: pure
// accounting by contract.
var fastForwardMethods = map[string]bool{
	"Quiescent":     true,
	"NextEvent":     true,
	"AdvanceCycles": true,
}

// obsForbiddenInJump are the internal/obs calls that are wrong inside a
// bulk accrual: per-event writers record one event where the stepped
// run would record n, and emissions/reads observe a cycle the jump is
// skipping. The bulk writers (Add, ObserveN, Set) are the sanctioned
// closed-form mechanism and stay legal.
var obsForbiddenInJump = map[string]bool{
	"Inc":      true,
	"Observe":  true,
	"Emit":     true,
	"Value":    true,
	"Snapshot": true,
}

// runTierDiscipline checks every fast-forward method body in
// internal/sim.
func runTierDiscipline(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fastForwardMethods[fd.Name.Name] {
				continue
			}
			inspectSameFunc(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return true
				}
				if isObsPackage(fn) && obsForbiddenInJump[fn.Name()] {
					p.Reportf(call.Pos(),
						"%s calls %s.%s mid-fast-forward; per-event obs calls record one event for an n-cycle jump and emissions observe a skipped cycle — use the bulk forms (Add/ObserveN) or accrue outside the jump",
						fd.Name.Name, fn.Pkg().Name(), fn.Name())
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && observationCalls[fn.Name()] {
					p.Reportf(call.Pos(),
						"%s calls observation API %s mid-fast-forward; bulk accrual must stay pure accounting so the jump matches the stepped run bit-for-bit",
						fd.Name.Name, fn.Name())
				}
				return true
			})
		}
	}
}

// isObsPackage reports whether fn lives in the observability layer.
func isObsPackage(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return strings.HasSuffix(path, "internal/obs") || strings.HasSuffix(path, "internal/obs/timeseries")
}
