// Package lint is the repository's self-contained static-analysis
// driver: it loads every package in the module with go/parser, resolves
// types with go/types (stdlib importers only — no x/tools, per DESIGN's
// stdlib-only rule), and runs a table of custom analyzers that enforce
// the simulator's determinism, accounting and observability invariants.
//
// The invariants are the ones the compiler cannot see but the paper's
// method depends on: simulations must be bit-reproducible from their
// seed (no wall clocks, no global RNG, no map-iteration order leaking
// into results or memo keys), model quantities must be compared with
// tolerances rather than ==, metric names must be snapshot-stable
// constants, the obs layer must keep its nil-receiver zero-cost off
// path, and io/encoding write errors in the CLIs must propagate.
//
// Findings print as "file:line:col: [analyzer] message". A finding can
// be suppressed with a `//lint:ignore analyzer reason` comment on (or
// immediately above) the offending line; the reason is mandatory and a
// suppression that matches nothing is itself a finding, so stale or
// blanket suppressions cannot accumulate. See DESIGN.md §8.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name (or "lint" for driver
	// findings such as malformed suppression directives).
	Analyzer string
	// Message describes the violated invariant.
	Message string
}

// String renders the canonical "file:line:col: [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzer is one table-registered invariant check. Adding a rule to the
// suite means writing one file defining an Analyzer and listing it in
// Analyzers; the driver, suppressions and golden-test harness pick it
// up by name.
type Analyzer struct {
	// Name is the stable identifier used in output and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description printed by `lpmlint -list`.
	Doc string
	// Paths are module-relative path prefixes the analyzer is scoped to
	// ("internal/sim" covers internal/sim/...); "." means the module
	// root package only. An empty list applies the analyzer to every
	// package.
	Paths []string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// Analyzers returns the full analyzer table in registration order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerMapOrder,
		analyzerFloatEq,
		analyzerObsDiscipline,
		analyzerTierDiscipline,
		analyzerErrcheck,
		analyzerCtxFlow,
	}
}

// analyzerByName resolves a //lint:ignore name.
func analyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass hands one package to one analyzer.
type Pass struct {
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// matchRel reports whether a module-relative package path rel falls
// under the path pattern (see Analyzer.Paths for the pattern language).
func matchRel(rel, pattern string) bool {
	if pattern == "." {
		return rel == ""
	}
	return rel == pattern || strings.HasPrefix(rel, pattern+"/")
}

// matchAny reports whether rel falls under any pattern; an empty pattern
// list matches everything.
func matchAny(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if matchRel(rel, p) {
			return true
		}
	}
	return false
}

// typeIsFloat reports whether t's underlying type is a floating-point
// basic type.
func typeIsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeFunc returns the object a call expression's callee resolves to, or
// nil for calls through non-selector/ident expressions (function
// values, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// inspectSameFunc walks n's subtree calling f on every node but does not
// descend into nested function literals, so analyzers can reason about
// one function body at a time.
func inspectSameFunc(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}
