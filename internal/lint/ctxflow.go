package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerCtxFlow enforces context-propagation discipline:
//
//  1. context.Background() / context.TODO() mint a fresh root context;
//     only a package main entry point may do that. Library code must
//     thread the caller's context — a Background() deep in a helper
//     silently severs cancellation for everything below it.
//  2. Even in package main, a function that itself receives a
//     context.Context must not mint a new root — that is context
//     shadowing, and the received context's cancellation is lost.
//  3. Passing a nil literal where a context.Context parameter is
//     expected is always wrong (callees may not nil-check).
//  4. A function that receives a context but never mentions it while
//     calling a callee whose signature takes one is dropping
//     cancellation on the floor; thread it through.
//
// Each function body and each function literal is checked on its own.
var analyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context must thread through call chains: no Background()/TODO() outside main, no shadowing, no nil contexts, no dropped ctx parameters",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkCtxFunc(p, fn.Name.Name, fn.Pos(), fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkCtxFunc(p, "func literal", fn.Pos(), fn.Type, fn.Body)
			}
			return true
		})
	}
}

// checkCtxFunc applies rules 1-4 to one function body; nested literals
// get their own visit.
func checkCtxFunc(p *Pass, name string, pos token.Pos, ft *ast.FuncType, body *ast.BlockStmt) {
	info := p.Pkg.Info
	ctxVars := ctxParams(info, ft)
	isMain := p.Pkg.Types.Name() == "main"
	var ctxCallee ast.Expr // the first callee whose signature takes a context
	inspectSameFunc(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
			(fn.Name() == "Background" || fn.Name() == "TODO") {
			switch {
			case len(ctxVars) > 0:
				p.Reportf(call.Pos(), "context.%s() shadows the context.Context this function already receives — thread the parameter instead", fn.Name())
			case !isMain:
				p.Reportf(call.Pos(), "context.%s() mints a root context in library code — accept a context.Context and thread the caller's instead", fn.Name())
			}
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok || tv.IsType() {
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			if ctxCallee == nil {
				ctxCallee = call.Fun
			}
			// Rule 3: nil passed where a context is expected.
			if i < len(call.Args) {
				if at, ok := info.Types[call.Args[i]]; ok && at.IsNil() {
					p.Reportf(call.Args[i].Pos(), "nil passed as context.Context — use the caller's context (or context.Background() at a main entry point)")
				}
			}
		}
		return true
	})
	// Rule 4: a received context that is never mentioned, not even by a
	// nested literal, while a callee wants one.
	if len(ctxVars) > 0 && ctxCallee != nil && !mentionsAny(info, body, ctxVars) {
		p.Reportf(pos, "%s receives a context.Context it never uses, yet calls ctx-capable %s — thread the context through (or drop the parameter)",
			name, types.ExprString(ctxCallee))
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxParams collects the *types.Var objects of ft's context.Context
// parameters.
func ctxParams(info *types.Info, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// mentionsAny reports whether body refers to any of vars.
func mentionsAny(info *types.Info, body *ast.BlockStmt, vars []*types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, v := range vars {
				if info.Uses[id] == v {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
