package lint

// Module-wide call graph over the go/types load. The interprocedural
// analyzers (hotpathalloc, ctxflow, fabricproto) need to reason about
// what is reachable from a root function — a component's Tick, a fabric
// granule handler — across package boundaries, which the per-package
// passes cannot see.
//
// Nodes are the module's declared functions and methods plus every
// function literal (literals are first-class nodes, not folded into
// their enclosing declaration, so a handler literal passed to
// fabric.RegisterKind can be a root of its own). Edges are:
//
//   - static calls: an identifier or selector resolving to a declared
//     module function;
//   - immediately-invoked function literals;
//   - interface dispatch: a call through a method of a module-defined
//     interface fans out to the matching concrete method of every
//     module type whose method set implements the interface.
//
// Soundness limits (documented in DESIGN.md §8): calls through stored
// function values, methods of interfaces defined outside the module
// (error, io.Writer, ...), and reflection are not traversed. The
// analyzers built on the graph therefore under-approximate
// reachability; they never invent edges, so a reported call chain is
// always a real static path.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function in the call graph: a declared function or
// method (Obj != nil) or a function literal (Lit != nil).
type FuncNode struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl is the declared function's syntax; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal's syntax; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package the function's body lives in.
	Pkg *Package
	// Calls lists the resolved call sites in body source order.
	Calls []CallSite
}

// Body returns the function's block, or nil for bodiless declarations.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Syntax returns the node's defining syntax (FuncDecl or FuncLit), the
// key under which the package's fact table stores its facts.
func (n *FuncNode) Syntax() ast.Node {
	if n.Lit != nil {
		return n.Lit
	}
	return n.Decl
}

// Pos locates the function for diagnostics and deterministic ordering.
func (n *FuncNode) Pos() token.Pos { return n.Syntax().Pos() }

// Name renders the function for call-chain messages: "(*Cache).Tick",
// "sched.runWindow", or "func literal at file:line" for literals.
func (n *FuncNode) Name() string {
	if n.Obj == nil {
		p := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func literal at %s:%d", shortFile(p.Filename), p.Line)
	}
	if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("(%s%s).%s", ptr, name, n.Obj.Name())
	}
	if pkg := n.Obj.Pkg(); pkg != nil {
		return pkg.Name() + "." + n.Obj.Name()
	}
	return n.Obj.Name()
}

// shortFile trims a file path to its last two segments for messages.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// CallSite is one resolved call in a function body. Interface dispatch
// produces one site with every possible concrete target.
type CallSite struct {
	// Pos is the call expression's position.
	Pos token.Pos
	// Targets are the module functions the call can reach.
	Targets []*FuncNode
	// Dynamic marks interface dispatch (Targets are the implementing
	// methods rather than one static callee).
	Dynamic bool
}

// CallGraph is the module-wide graph; build it with Module.Graph.
type CallGraph struct {
	mod   *Module
	nodes map[*types.Func]*FuncNode
	lits  map[*ast.FuncLit]*FuncNode
	all   []*FuncNode // deterministic (position) order

	// implCache memoises interface-method → concrete-method expansion.
	implCache map[*types.Func][]*FuncNode
}

// Graph builds (once) and returns the module's call graph.
func (m *Module) Graph() *CallGraph {
	m.graphOnce.Do(func() { m.graph = buildCallGraph(m) })
	return m.graph
}

// NodeOf returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// LitNode returns the graph node for a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *FuncNode { return g.lits[lit] }

// Nodes returns every node in deterministic (file position) order.
func (g *CallGraph) Nodes() []*FuncNode { return g.all }

func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		mod:       mod,
		nodes:     make(map[*types.Func]*FuncNode),
		lits:      make(map[*ast.FuncLit]*FuncNode),
		implCache: make(map[*types.Func][]*FuncNode),
	}
	// Pass 1: create nodes for declared functions and every literal.
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &FuncNode{Obj: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = n
				g.all = append(g.all, n)
			}
			ast.Inspect(f, func(nd ast.Node) bool {
				if lit, ok := nd.(*ast.FuncLit); ok {
					n := &FuncNode{Lit: lit, Pkg: pkg}
					g.lits[lit] = n
					g.all = append(g.all, n)
				}
				return true
			})
		}
	}
	sort.Slice(g.all, func(i, j int) bool { return g.all[i].Pos() < g.all[j].Pos() })
	// Pass 2: resolve each node's calls.
	for _, n := range g.all {
		g.resolveCalls(n)
	}
	return g
}

// resolveCalls walks n's own body (not nested literals — those are
// their own nodes) recording resolved call sites.
func (g *CallGraph) resolveCalls(n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	info := n.Pkg.Info
	inspectSameFunc(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		fun := ast.Unparen(call.Fun)
		if lit, ok := fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal.
			if ln := g.lits[lit]; ln != nil {
				n.Calls = append(n.Calls, CallSite{Pos: call.Pos(), Targets: []*FuncNode{ln}})
			}
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true // function value, builtin, or unresolvable
		}
		if iface := interfaceRecv(fn); iface != nil {
			if !g.moduleFunc(fn) {
				return true // stdlib interface: not traversed
			}
			if impls := g.implementations(fn, iface); len(impls) > 0 {
				n.Calls = append(n.Calls, CallSite{Pos: call.Pos(), Targets: impls, Dynamic: true})
			}
			return true
		}
		if target := g.NodeOf(fn); target != nil {
			n.Calls = append(n.Calls, CallSite{Pos: call.Pos(), Targets: []*FuncNode{target}})
		}
		return true
	})
}

// interfaceRecv returns fn's receiver interface type when fn is an
// abstract interface method, else nil.
func interfaceRecv(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// moduleFunc reports whether fn is declared in a module package.
func (g *CallGraph) moduleFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == g.mod.Path || strings.HasPrefix(path, g.mod.Path+"/")
}

// implementations expands an interface method to the matching concrete
// methods of every module type implementing the interface.
func (g *CallGraph) implementations(fn *types.Func, iface *types.Interface) []*FuncNode {
	if impls, ok := g.implCache[fn]; ok {
		return impls
	}
	var impls []*FuncNode
	for _, pkg := range g.mod.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			sel := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name())
			if sel == nil {
				continue
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			if target := g.NodeOf(m); target != nil {
				impls = append(impls, target)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	g.implCache[fn] = impls
	return impls
}

// ReachStep is one entry in a reachability result: how Node was first
// reached (From + the call position), forming a blame chain back to a
// root.
type ReachStep struct {
	Node *FuncNode
	// From is the step that first reached Node; nil for roots.
	From *ReachStep
	// CallPos is the call site in From that reached Node.
	CallPos token.Pos
}

// Chain renders the root → ... → node path for diagnostics.
func (r *ReachStep) Chain() string {
	var names []string
	for s := r; s != nil; s = s.From {
		names = append(names, s.Node.Name())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// Reach computes the functions reachable from roots via breadth-first
// search. Roots are visited in the given order and call sites in source
// order, so the parent chain recorded for each function — the blame
// chain in diagnostics — is deterministic.
func (g *CallGraph) Reach(roots []*FuncNode) map[*FuncNode]*ReachStep {
	reached := make(map[*FuncNode]*ReachStep)
	var queue []*ReachStep
	for _, r := range roots {
		if r == nil || reached[r] != nil {
			continue
		}
		step := &ReachStep{Node: r}
		reached[r] = step
		queue = append(queue, step)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, site := range cur.Node.Calls {
			for _, t := range site.Targets {
				if reached[t] != nil {
					continue
				}
				step := &ReachStep{Node: t, From: cur, CallPos: site.Pos}
				reached[t] = step
				queue = append(queue, step)
			}
		}
	}
	return reached
}
