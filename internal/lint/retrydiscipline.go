package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerRetryDiscipline enforces the fleet's backoff contract: every
// retry loop around network establishment or frame I/O in the fleet
// layers (the fabric, the control plane, the worker binary) must pace
// itself through the shared fleet.RetryPolicy, whose delays are capped
// and whose jitter comes from a seeded stream. Two findings:
//
//  1. hand-rolled pacing — time.Sleep / time.After / time.NewTimer /
//     time.Tick inside a loop that also dials, listens, or moves
//     frames. Ad-hoc sleeps are uncapped, unjittered, and invisible to
//     the chaos suite's determinism guarantees; a restarted fleet
//     redials in lockstep and hammers the coordinator.
//  2. math/rand anywhere in the scoped packages — jitter must come
//     from the policy's seeded generator so a reconnect schedule
//     replays bit-identically for a given seed.
//
// The compliant pattern is fleet.RetryPolicy.Sleep(ctx, attempt) (or
// Delay for callers that own the timer), seeded once at startup.
var analyzerRetryDiscipline = &Analyzer{
	Name:  "retrydiscipline",
	Doc:   "network retry loops in the fleet layers must pace through the shared seeded fleet.RetryPolicy — no ad-hoc time.Sleep pacing, no math/rand jitter",
	Paths: []string{"internal/fabric", "internal/ctrl", "cmd/lpmworker"},
	Run:   runRetryDiscipline,
}

func runRetryDiscipline(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nd := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(info, nd); fn != nil && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "math/rand", "math/rand/v2":
						p.Reportf(nd.Pos(), "math/rand in the fleet layer: retry jitter must come from the seeded fleet.RetryPolicy stream so reconnect schedules replay deterministically")
					}
				}
			case *ast.ForStmt:
				checkRetryLoop(p, nd.Body)
			case *ast.RangeStmt:
				checkRetryLoop(p, nd.Body)
			}
			return true
		})
	}
}

// checkRetryLoop inspects one loop level (nested loops and function
// literals get their own visits) and reports ad-hoc pacing calls when
// the same level performs network I/O — the shape of a hand-rolled
// reconnect/re-send loop.
func checkRetryLoop(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	var pacing []*ast.CallExpr
	hasNet := false
	inspectSameLoop(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if isTimePacing(fn) {
			pacing = append(pacing, call)
		}
		if isNetRetryTarget(fn) {
			hasNet = true
		}
		return true
	})
	if !hasNet {
		return
	}
	for _, call := range pacing {
		p.Reportf(call.Pos(), "hand-rolled retry pacing around network I/O — use the shared fleet.RetryPolicy (Sleep/Delay) so backoff is capped, seeded, and deterministic")
	}
}

// isTimePacing reports whether fn is a time-package delay primitive —
// the building blocks of ad-hoc backoff.
func isTimePacing(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Sleep", "After", "NewTimer", "Tick":
		return true
	}
	return false
}

// isNetRetryTarget reports whether fn establishes connections or moves
// frames: stdlib net dial/listen/accept (functions and methods both
// live in package net) and the module's fabric wire surface.
func isNetRetryTarget(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if pkg.Path() == "net" {
		return strings.HasPrefix(fn.Name(), "Dial") || fn.Name() == "Listen" || fn.Name() == "Accept"
	}
	if p := pkg.Path(); p == "internal/fabric" || strings.HasSuffix(p, "/internal/fabric") {
		switch fn.Name() {
		case "ReadFrame", "WriteFrame", "RunWorker":
			return true
		}
	}
	return false
}

// inspectSameLoop walks a loop body calling f on every node but does
// not descend into nested function literals or nested loops.
func inspectSameLoop(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		return f(m)
	})
}
