package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// analyzerFabricProto enforces the sharded-fabric purity contract: a
// granule handler (fabric.RegisterKind, fabric.NewKind) must be a pure
// function of its (kind, key, spec) inputs. The coordinator memoises
// and re-dispatches granules by content key — a handler that reads
// captured mutable state, package-level mutable variables, the wall
// clock or global randomness produces results that differ between
// workers and between runs, silently corrupting the sweep.
//
// The check walks everything reachable from each registered handler
// and reports, with the call chain:
//
//   - mutable free variables captured by a handler literal;
//   - reads of package-level mutable reference state (maps, slices,
//     pointers, channels) outside internal/fabric and internal/parallel,
//     whose registry and memo machinery are the sanctioned exceptions;
//   - wall-clock/randomness reads and os/net I/O anywhere in the
//     handler's reach.
var analyzerFabricProto = &Analyzer{
	Name:      "fabricproto",
	Doc:       "fabric.RegisterKind handlers must be pure functions of their spec: no captured mutable state, no global mutable reads, no clock/RNG/IO",
	RunModule: runFabricProto,
}

// fabricPureExempt are the subtrees whose internal state a handler may
// touch: the fabric registry itself and the parallel memo machinery.
var fabricPureExempt = []string{"internal/fabric", "internal/parallel"}

func runFabricProto(p *ModulePass) {
	handlers := registeredHandlers(p)
	for _, h := range handlers {
		if h.node.Lit != nil {
			reportCapturedState(p, h.node)
		}
		reached := p.Graph.Reach([]*FuncNode{h.node})
		ordered := make([]*FuncNode, 0, len(reached))
		for n := range reached {
			ordered = append(ordered, n)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })
		for _, n := range ordered {
			if matchAny(n.Pkg.Rel, fabricPureExempt) {
				continue
			}
			facts := factsOf(n)
			via := ""
			if reached[n].From != nil {
				via = " (reached via " + reached[n].Chain() + ")"
			}
			for _, s := range facts.WallClock {
				p.Reportf(s.Pos, "%s in fabric handler for kind %q%s: granule results must be pure functions of the spec", s.What, h.kind, via)
			}
			for _, s := range facts.IO {
				p.Reportf(s.Pos, "%s in fabric handler for kind %q%s: granule results must be pure functions of the spec", s.What, h.kind, via)
			}
			for _, s := range facts.GlobalReads {
				if !mutableGlobalSite(n, s) {
					continue
				}
				p.Reportf(s.Pos, "%s in fabric handler for kind %q%s: granule results must be pure functions of the spec", s.What, h.kind, via)
			}
		}
	}
}

// registeredHandler is one resolved RegisterKind call: the kind string
// (when constant) and the handler's graph node.
type registeredHandler struct {
	kind string
	node *FuncNode
}

// registeredHandlers finds every fabric.RegisterKind and fabric.NewKind
// call in the module, package-level initialisers included (both take the
// kind, then the function), and resolves the function argument to a
// graph node: a literal, a named function, or a method value. The
// fabric package is skipped: NewKind's run is checked at its call site.
func registeredHandlers(p *ModulePass) []registeredHandler {
	var out []registeredHandler
	for _, pkg := range p.Mod.Packages {
		if isFabricPkg(pkg.Types) {
			continue
		}
		info := pkg.Info
		for _, file := range pkg.Syntax {
			ast.Inspect(file, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || !isFabricPkg(fn.Pkg()) || len(call.Args) < 2 ||
					(fn.Name() != "RegisterKind" && fn.Name() != "NewKind") {
					return true
				}
				kind := "?"
				if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil {
					kind = constStringValue(tv)
				}
				if hn := handlerNode(p.Graph, info, call.Args[1]); hn != nil {
					out = append(out, registeredHandler{kind: kind, node: hn})
				} else {
					p.Reportf(call.Args[1].Pos(), "fabric.RegisterKind handler for kind %q is not statically resolvable (stored function value) — register a literal or named function so purity can be checked", kind)
				}
				return true
			})
		}
	}
	return out
}

// isFabricPkg reports whether pkg is the module's fabric package.
func isFabricPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "internal/fabric" || strings.HasSuffix(pkg.Path(), "/internal/fabric")
}

// constStringValue renders a constant string type-and-value for
// messages, stripping the quotes go/constant adds.
func constStringValue(tv types.TypeAndValue) string {
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// handlerNode resolves a RegisterKind handler argument to its graph
// node: literals directly, identifiers/selectors through their object.
func handlerNode(g *CallGraph, info *types.Info, arg ast.Expr) *FuncNode {
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return g.LitNode(e)
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return g.NodeOf(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return g.NodeOf(fn)
		}
	}
	return nil
}

// reportCapturedState flags mutable free variables a handler literal
// captures from its enclosing function: their values at registration
// time (or worse, at mutation time) leak into granule results.
func reportCapturedState(p *ModulePass, n *FuncNode) {
	info := n.Pkg.Info
	lit := n.Lit
	inspectSameFunc(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		// Package-level vars are the GlobalReads fact's business.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		// Declared inside the literal (params included) is fine.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		p.Reportf(id.Pos(), "fabric handler captures variable %q from its enclosing scope: granule results must depend only on the spec argument", v.Name())
		return true
	})
}

// mutableGlobalSite reports whether a GlobalReads fact concerns a
// mutable reference type (map, slice, pointer, chan). Scalar and
// struct-valued package vars are still impure in principle, but the
// repo's convention is const-like configuration values; reference
// types are where registry state actually lives.
func mutableGlobalSite(n *FuncNode, s Site) bool {
	// Re-resolve the identifier at the site to get its type.
	var typ types.Type
	inspectSameFunc(n.Body(), func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || id.Pos() != s.Pos {
			return true
		}
		if v, ok := n.Pkg.Info.Uses[id].(*types.Var); ok {
			typ = v.Type()
		}
		return false
	})
	if typ == nil {
		return false
	}
	switch typ.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer, *types.Chan:
		return true
	}
	return false
}
