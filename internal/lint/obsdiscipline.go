package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// analyzerObsDiscipline enforces the observability layer's contracts:
//
//  1. Metric names passed to the internal/obs Registry
//     (Counter/Gauge/Histogram) must be compile-time string constants
//     or end in a constant suffix (`prefix + ".hits"`), tracer event
//     names (Tracer.Emit) must be constants, and time-series probe
//     names (timeseries Sampler.Track) follow the same
//     constant-suffix rule, so snapshots and timelines stay stable,
//     greppable and name-sorted across runs.
//  2. Exported pointer-receiver methods in internal/obs (the
//     timeseries subpackage included) that touch receiver state must
//     open with the nil-receiver guard — the zero-cost off path every
//     simulator component relies on.
//  3. The simulation substrate (internal/sim, internal/core) must not
//     spawn goroutines: a Registry is unsynchronised and owned by one
//     simulation goroutine; concurrency belongs in internal/parallel.
var analyzerObsDiscipline = &Analyzer{
	Name: "obsdiscipline",
	Doc:  "metric/trace names must be constant(-suffixed); obs handles keep the nil-receiver fast path; no goroutines inside the simulator",
	Run:  runObsDiscipline,
}

func runObsDiscipline(p *Pass) {
	checkMetricNames(p)
	if matchAny(p.Pkg.Rel, []string{"internal/obs"}) {
		checkNilGuards(p)
	}
	if matchAny(p.Pkg.Rel, []string{"internal/sim", "internal/core"}) {
		checkNoGoroutines(p)
	}
}

// checkMetricNames verifies every registry/tracer name argument.
func checkMetricNames(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkgPath := fn.Pkg().Path()
			if !strings.HasSuffix(pkgPath, "internal/obs") && !strings.HasSuffix(pkgPath, "internal/obs/timeseries") {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := recvTypeName(sig)
			switch {
			case recv == "Sampler" && fn.Name() == "Track":
				if len(call.Args) > 0 && !constSuffixedName(info, call.Args[0]) {
					p.Reportf(call.Args[0].Pos(),
						"probe name passed to Sampler.Track must be a string constant or end in a constant suffix (prefix + \".name\"); dynamic names destabilise timeline probe ordering")
				}
			case recv == "Registry" && (fn.Name() == "Counter" || fn.Name() == "Gauge" || fn.Name() == "Histogram"):
				if len(call.Args) > 0 && !constSuffixedName(info, call.Args[0]) {
					p.Reportf(call.Args[0].Pos(),
						"metric name passed to Registry.%s must be a string constant or end in a constant suffix (prefix + \".name\"); dynamic names destabilise snapshot ordering",
						fn.Name())
				}
			case recv == "Tracer" && fn.Name() == "Emit":
				if len(call.Args) > 1 && !isStringConst(info, call.Args[1]) {
					p.Reportf(call.Args[1].Pos(),
						"event name passed to Tracer.Emit must be a string constant; dynamic event kinds break trace consumers")
				}
			}
			return true
		})
	}
}

// recvTypeName returns the receiver's named-type name, dereferencing a
// pointer receiver.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isStringConst reports whether e is a compile-time string constant.
func isStringConst(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	return tv.Value != nil && tv.Value.Kind() == constant.String
}

// constSuffixedName accepts a full string constant, or a concatenation
// whose final operand is a string constant — the `prefix + ".hits"`
// idiom where only the instance prefix (cpu.0, l1.3) is dynamic.
func constSuffixedName(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if isStringConst(info, e) {
		return true
	}
	be, ok := e.(*ast.BinaryExpr)
	if !ok || be.Op != token.ADD {
		return false
	}
	return isStringConst(info, be.Y)
}

// checkNilGuards enforces rule 2: every exported pointer-receiver
// method must open with the nil-receiver guard when it touches receiver
// state.
func checkNilGuards(p *Pass) {
	for _, f := range p.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			recvName, isPtr := recvInfo(fd)
			if !isPtr || recvName == "" || recvName == "_" {
				continue
			}
			if !touchesReceiverState(p.Pkg.Info, fd, recvName) {
				continue // pure delegation; the callee guards
			}
			if !startsWithNilGuard(fd.Body, recvName) {
				p.Reportf(fd.Name.Pos(),
					"exported obs method %s dereferences its receiver without the nil-receiver guard; the first statement must be `if %s == nil`/`!= nil` so disabled observability stays zero-cost",
					fd.Name.Name, recvName)
			}
		}
	}
}

// recvInfo extracts the receiver identifier name and pointer-ness.
func recvInfo(fd *ast.FuncDecl) (name string, ptr bool) {
	if len(fd.Recv.List) == 0 {
		return "", false
	}
	field := fd.Recv.List[0]
	if _, ok := field.Type.(*ast.StarExpr); !ok {
		return "", false
	}
	if len(field.Names) == 0 {
		return "", true
	}
	return field.Names[0].Name, true
}

// touchesReceiverState reports whether the method selects a field on
// the receiver (a dereference that would panic on nil).
func touchesReceiverState(info *types.Info, fd *ast.FuncDecl, recv string) bool {
	touches := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || id.Name != recv {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			touches = true
		}
		return true
	})
	return touches
}

// startsWithNilGuard reports whether the body's first statement is an
// if with a `recv == nil` or `recv != nil` condition.
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok {
		return false
	}
	be, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && isRecv(be.Y))
}

// checkNoGoroutines enforces rule 3.
func checkNoGoroutines(p *Pass) {
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(),
					"goroutine spawned inside the simulation substrate; the obs registry and sim state are single-goroutine by contract — hoist concurrency to internal/parallel")
			}
			return true
		})
	}
}
