package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// analyzerFloatEq flags == and != between floating-point model
// quantities (C-AMAT terms, IPC, LPMR, stall fractions). Those values
// come out of long dependent float pipelines, so exact equality is
// either vacuously true (same computation) or flaky; comparisons must
// go through a tolerance. Three idioms stay legal: comparing against
// the constant 0 (division/sentinel guards have exact-zero semantics),
// x != x (the NaN check), and comparisons between two compile-time
// constants.
var analyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= on floating-point model quantities outside tolerance helpers (zero guards, NaN checks and constant folds stay legal)",
	Paths: []string{
		"internal/core", "internal/analyzer", "internal/explore",
		"internal/sched", "internal/interval",
		"internal/stats", ".",
	},
	Run: runFloatEq,
}

// toleranceFuncFragments mark helper functions whose whole job is
// approximate comparison; exact compares inside them are the
// implementation of the tolerance itself.
var toleranceFuncFragments = []string{"approx", "almost", "near", "within", "tol"}

func runFloatEq(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fd.Body == nil || inToleranceHelper(fd.Name.Name) {
				return true
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				be, ok := m.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				checkFloatCompare(p, info, be)
				return true
			})
			return false
		})
	}
}

// inToleranceHelper reports whether the enclosing function's name marks
// it as a tolerance helper.
func inToleranceHelper(name string) bool {
	l := strings.ToLower(name)
	for _, frag := range toleranceFuncFragments {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}

func checkFloatCompare(p *Pass, info *types.Info, be *ast.BinaryExpr) {
	tx, ty := info.TypeOf(be.X), info.TypeOf(be.Y)
	if tx == nil || ty == nil || (!typeIsFloat(tx) && !typeIsFloat(ty)) {
		return
	}
	xv, yv := info.Types[be.X], info.Types[be.Y]
	if xv.Value != nil && yv.Value != nil {
		return // constant fold
	}
	if isZeroConst(xv) || isZeroConst(yv) {
		return // exact-zero guard
	}
	if types.ExprString(be.X) == types.ExprString(be.Y) {
		return // NaN idiom x != x
	}
	p.Reportf(be.Pos(), "floating-point %s on model quantities; compare with a tolerance (|a-b| <= eps) or a *Approx/*Near helper", be.Op)
}

// isZeroConst reports whether the operand is the numeric constant 0.
func isZeroConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
