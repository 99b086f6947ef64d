package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerTierDiscipline enforces the tiered-fidelity contracts the
// compiler cannot see (DESIGN.md §9): counters and timelines are only
// meaningful while the detailed engine is driving them.
//
//  1. Every detailed-only Chip entry point (Tick, the Measure family,
//     Snapshot, EnableTimeseries) must open with the requireDetailed
//     guard, so reading counters or opening a timeline in the
//     functional tier fails loudly instead of returning garbage.
//  2. Fast-forward accrual code — the Quiescent / NextEvent /
//     AdvanceCycles component trio — must not touch observation APIs.
//     During a quiescent jump counters advance in closed form; a
//     Snapshot, Measure or obs emission taken from inside the jump
//     would observe a cycle that is being skipped, and would diverge
//     from the stepped run the jump must match bit-for-bit.
var analyzerTierDiscipline = &Analyzer{
	Name:  "tierdiscipline",
	Doc:   "detailed-only chip entry points must open with requireDetailed; fast-forward accrual must not touch observation APIs",
	Paths: []string{"internal/sim"},
	Run:   runTierDiscipline,
}

// detailedOnly lists the Chip methods that read counters, drive the
// cycle-accurate engine or open timelines, and therefore must be
// guarded against the functional tier.
var detailedOnly = map[string]bool{
	"Tick":             true,
	"Measure":          true,
	"Snapshot":         true,
	"EnableTimeseries": true,
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

func runTierDiscipline(p *Pass) {
	if p.Pkg.Rel == "internal/sim/chip" {
		checkDetailedGuards(p)
	}
	checkFastForwardPurity(p)
}

// checkDetailedGuards enforces rule 1: each detailed-only *Chip method
// must have the requireDetailed call as its first statement.
func checkDetailedGuards(p *Pass) {
	for _, f := range p.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !detailedOnly[fd.Name.Name] {
				continue
			}
			if recvNamed(p.Pkg.Info, fd) != "Chip" {
				continue
			}
			if !startsWithRequireDetailed(fd.Body) {
				p.Reportf(fd.Name.Pos(),
					"detailed-only chip entry point %s must open with the requireDetailed guard; counters and timelines are meaningless in the functional tier",
					fd.Name.Name)
			}
		}
	}
}

// recvNamed returns the name of fd's receiver type, through a pointer.
func recvNamed(info *types.Info, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// startsWithRequireDetailed reports whether the body's first statement
// is a call to requireDetailed.
func startsWithRequireDetailed(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	es, ok := body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "requireDetailed"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "requireDetailed"
	}
	return false
}

// checkFastForwardPurity enforces rule 2 inside every fast-forward
// method body in internal/sim.
func checkFastForwardPurity(p *Pass) {
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
