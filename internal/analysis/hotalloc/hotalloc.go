// Package hotalloc enforces the repository's hot-path allocation budget at
// lint time. BENCH_baseline.json pins allocs/op for the engine wave loop, the
// exec event loop, schedule dependency-graph construction, the slicer's inner
// loop, and the obs sinkless Emit — but a benchmark only catches a regression
// after it runs. hotalloc makes the same budget a static invariant: functions
// marked hot (a `//hot` comment on the declaration, or the analyzer's
// configured hot list) must not allocate per iteration, and neither may
// anything they transitively call within the package.
//
// Model:
//
//   - A hot *root* is a marked function. Its hot region is the union of its
//     loop bodies — the code that runs per iteration — or the whole body if
//     it has no loops (helpers like obs.Emit are hot in their entirety).
//   - Any same-package function called from a hot region is *derived hot*,
//     with its whole body as the region (it runs per iteration of the root),
//     transitively via the package call graph.
//   - Conditional blocks that end by leaving the function or breaking out of
//     the loop (`if err != nil { return ... }`, violation paths, error
//     construction) are pruned: they run at most once per loop execution, so
//     their allocations are not per-iteration costs. This is a deliberate
//     false-negative trade — the CI bench compare remains the backstop for
//     allocations hiding on cold exits.
//
// Flagged inside a hot region: make/new, fmt.* calls, slice and map
// composite literals, &composite escapes, function literals (closure
// captures), string concatenation and string<->[]byte conversions, interface
// boxing at call sites (a non-pointer-shaped concrete argument passed to an
// interface parameter), and `append` that either escapes its first argument
// (`y = append(x, ...)`, `f(append(x, ...))`) or grows a slice declared
// inside the region (per-iteration backing arrays). In-place amortized growth
// of a caller-owned slice (`x = append(x, ...)` with x declared outside the
// region) is the sanctioned pattern and is not flagged. Calls that do not
// resolve within the package are assumed allocation-free — the soundness
// caveat of an AST-level graph; see DESIGN §11.9.
//
// Escape hatch: `//lint:allow hotalloc <reason>` on the line or the line
// above, for allocations that are structural rather than per-iteration waste
// (cache fills, the result being built, worker-pool spawns amortized across a
// wave). The unused-waiver report keeps the set honest.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"autopipe/internal/analysis"
	"autopipe/internal/analysis/callgraph"
)

// DefaultScope lists the packages with pinned hot paths.
var DefaultScope = []string{
	"autopipe/internal/core",
	"autopipe/internal/exec",
	"autopipe/internal/partition",
	"autopipe/internal/schedule",
	"autopipe/internal/sim",
	"autopipe/internal/slicer",
	"autopipe/internal/obs",
	"autopipe/internal/tensor",
}

// DefaultHot names the designated hot functions (types.Func.FullName form),
// mirroring the BENCH_baseline.json suite. The `//hot` annotations on the
// declarations are the primary marker; this list is belt-and-braces — if a
// rename strands an entry, the analyzer reports the stale entry rather than
// silently checking nothing.
var DefaultHot = []string{
	"(*autopipe/internal/core.engine).run",
	"(*autopipe/internal/exec.Runner).Run",
	"(*autopipe/internal/schedule.Schedule).Dependencies",
	"autopipe/internal/slicer.SolveProfile",
	"(*autopipe/internal/obs.Registry).Emit",
}

// Analyzer checks the production hot-path packages.
var Analyzer = New(DefaultScope, DefaultHot...)

// New returns a hotalloc analyzer scoped to the given package paths, with hot
// roots drawn from `//hot` annotations plus the given FullName list.
func New(scope []string, hot ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc:  "forbid per-iteration allocations in and below //hot functions",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !inScope(pass.Pkg.Path(), scope) {
			return nil
		}
		var files []*ast.File
		for _, f := range pass.Files {
			if !pass.InTestFile(f) {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			return nil
		}
		g := callgraph.Build(files, pass.Info)
		run(pass, g, files, hot)
		return nil
	}
	return a
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass, g *callgraph.Graph, files []*ast.File, hot []string) {
	hotLines := hotCommentLines(pass, files)
	wantNames := make(map[string]bool)
	for _, name := range hot {
		if strings.Contains(name, pass.Pkg.Path()+".") {
			wantNames[name] = true
		}
	}

	type work struct {
		node *callgraph.Node
		root string // name of the hot root this work derives from
	}
	var roots []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		if isAnnotated(pass, n.Decl, hotLines) {
			roots = append(roots, n)
		} else if n.Obj != nil && wantNames[n.Obj.FullName()] {
			roots = append(roots, n)
		}
	}
	// Annotated and listed roots both satisfy list entries; whatever is left
	// names nothing and gets reported as stale configuration.
	for _, n := range roots {
		if n.Obj != nil {
			delete(wantNames, n.Obj.FullName())
		}
	}
	stale := make([]string, 0, len(wantNames))
	for name := range wantNames {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		pass.Reportf(files[0].Name.Pos(),
			"hot-list entry %q matches no function in package %s; update the hotalloc configuration",
			name, pass.Pkg.Path())
	}

	visited := make(map[*callgraph.Node]bool)
	var queue []work
	sc := &scanner{pass: pass, g: g}
	for _, n := range roots {
		visited[n] = true
	}
	for _, n := range roots {
		sc.root = n.Name()
		sc.derived = false
		sc.enqueue = func(callee *callgraph.Node, root string) {
			if !visited[callee] {
				visited[callee] = true
				queue = append(queue, work{callee, root})
			}
		}
		for _, region := range regionsOf(n) {
			sc.scan(region)
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		sc.root = w.root
		sc.derived = true
		body := w.node.Body()
		if body == nil {
			continue
		}
		sc.scan(body)
	}
}

// regionsOf returns the hot regions of a root: its outermost loop bodies, or
// the whole body when it contains no loops.
func regionsOf(n *callgraph.Node) []ast.Node {
	body := n.Body()
	if body == nil {
		return nil
	}
	var loops []ast.Node
	var find func(ast.Node)
	find = func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return m == root
			case *ast.ForStmt:
				loops = append(loops, m.Body)
				return false
			case *ast.RangeStmt:
				loops = append(loops, m.Body)
				return false
			}
			return true
		})
	}
	find(body)
	if len(loops) == 0 {
		return []ast.Node{body}
	}
	return loops
}

// scanner flags per-iteration allocations within one region.
type scanner struct {
	pass    *analysis.Pass
	g       *callgraph.Graph
	root    string
	derived bool
	enqueue func(*callgraph.Node, string)

	region ast.Node
	// okAppend marks append calls already judged by their enclosing
	// assignment (visited before the call node itself).
	okAppend map[*ast.CallExpr]bool
}

func (s *scanner) where() string {
	if s.derived {
		return fmt.Sprintf("reachable from hot %s", s.root)
	}
	return fmt.Sprintf("in hot %s", s.root)
}

func (s *scanner) reportf(pos token.Pos, format string, args ...any) {
	s.pass.Reportf(pos, "hot path (%s): %s; hoist it out of the per-iteration path, reuse a buffer, or annotate //lint:allow hotalloc <reason>",
		s.where(), fmt.Sprintf(format, args...))
}

func (s *scanner) scan(region ast.Node) {
	s.region = region
	s.okAppend = make(map[*ast.CallExpr]bool)
	s.walk(region)
}

// walk descends with cold-exit pruning: conditional blocks that end in
// return/panic/break run at most once per loop execution and are skipped.
func (s *scanner) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		if n != s.region {
			s.reportf(n.Pos(), "function literal allocates a closure per iteration")
			return
		}
		s.walkList2(nil, n.Body.List)
		return
	case *ast.IfStmt:
		s.walkStmt(n.Init)
		s.visitExpr(n.Cond)
		if !endsInExit(n.Body.List) {
			s.walk(n.Body)
		}
		if n.Else != nil {
			if blk, ok := n.Else.(*ast.BlockStmt); ok && endsInExit(blk.List) {
				return
			}
			s.walk(n.Else)
		}
		return
	case *ast.SwitchStmt:
		s.walkStmt(n.Init)
		s.visitExpr(n.Tag)
		s.walkCases(n.Body)
		return
	case *ast.TypeSwitchStmt:
		s.walkStmt(n.Init)
		s.walkStmt(n.Assign)
		s.walkCases(n.Body)
		return
	case *ast.SelectStmt:
		s.walkCases(n.Body)
		return
	}

	// The pruning cases above never reach here with m == n, so every typed
	// case below applies to n itself as well as its descendants.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			s.walk(m)
			return false
		case *ast.AssignStmt:
			s.judgeAppends(m)
			return true
		case *ast.CallExpr:
			s.visitCall(m)
			return true
		case *ast.CompositeLit:
			s.visitComposite(m)
			return true
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if cl, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
					s.reportf(m.Pos(), "&%s composite literal escapes to the heap", typeDesc(s.pass, cl))
					return false
				}
			}
			return true
		case *ast.BinaryExpr:
			if m.Op == token.ADD && isString(s.pass.Info.TypeOf(m)) {
				s.reportf(m.Pos(), "string concatenation builds a new string")
			}
			return true
		}
		return true
	})
}

func (s *scanner) walkCases(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s.visitExpr(e)
			}
			if !endsInExit(c.Body) {
				s.walkList2(nil, c.Body)
			}
		case *ast.CommClause:
			s.walkStmt(c.Comm)
			if !endsInExit(c.Body) {
				s.walkList2(nil, c.Body)
			}
		}
	}
}

func (s *scanner) walkList2(_ ast.Node, stmts []ast.Stmt) {
	for _, st := range stmts {
		s.walk(st)
	}
}

func (s *scanner) walkStmt(st ast.Stmt) {
	if st != nil {
		s.walk(st)
	}
}

func (s *scanner) visitExpr(e ast.Expr) {
	if e != nil {
		s.walk(e)
	}
}

// judgeAppends decides `lhs = append(dst, ...)` forms before the call node is
// visited: same destination declared outside the region is the amortized
// in-place pattern and passes.
func (s *scanner) judgeAppends(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(s.pass.Info, call, "append") || len(call.Args) == 0 {
			continue
		}
		lhsStr := types.ExprString(as.Lhs[i])
		dstStr := types.ExprString(call.Args[0])
		if lhsStr != dstStr {
			continue // copy-grow; the call visit flags it
		}
		if s.declaredInRegion(call.Args[0]) {
			continue // per-iteration backing array; the call visit flags it
		}
		s.okAppend[call] = true
	}
}

func (s *scanner) declaredInRegion(dst ast.Expr) bool {
	id, ok := ast.Unparen(dst).(*ast.Ident)
	if !ok {
		return false
	}
	obj := s.pass.Info.Uses[id]
	if obj == nil {
		obj = s.pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= s.region.Pos() && obj.Pos() < s.region.End()
}

func (s *scanner) visitCall(call *ast.CallExpr) {
	info := s.pass.Info
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				s.reportf(call.Pos(), "make allocates per iteration")
			case "new":
				s.reportf(call.Pos(), "new allocates per iteration")
			case "append":
				if !s.okAppend[call] {
					s.reportf(call.Pos(), "append escapes or grows a per-iteration slice")
				}
			}
			return
		}
	}
	// Conversions with fresh backing arrays.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.TypeOf(call.Args[0])
			_, toSlice := to.Underlying().(*types.Slice)
			if (toSlice && isString(from)) || (isString(to) && from != nil && !isString(from)) {
				s.reportf(call.Pos(), "string/slice conversion copies into a fresh backing array")
			}
		}
		return
	}
	// fmt.* allocates its result (and boxes its operands; one finding).
	if fn := pkgLevelFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		s.reportf(call.Pos(), "fmt.%s allocates", fn.Name())
		return
	}
	// Same-package callees become derived hot; their bodies are scanned, so
	// the call itself is not a finding.
	if callee := s.g.CalleeOf(call); callee != nil {
		s.enqueue(callee, s.root)
	}
	// Interface boxing at the call site, whoever the callee is.
	s.checkBoxing(call)
}

func (s *scanner) checkBoxing(call *ast.CallExpr) {
	info := s.pass.Info
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isUntypedNil(at) {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		if isPointerShaped(at) {
			continue
		}
		s.reportf(arg.Pos(), "argument %s boxes into interface parameter", types.ExprString(arg))
	}
}

func (s *scanner) visitComposite(cl *ast.CompositeLit) {
	t := s.pass.Info.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		s.reportf(cl.Pos(), "slice literal allocates a backing array")
	case *types.Map:
		s.reportf(cl.Pos(), "map literal allocates")
	}
}

// endsInExit reports whether a statement list ends by leaving the function or
// the loop: the block runs at most once per loop execution, so it is cold.
func endsInExit(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// hotCommentLines collects the file:line of every `//hot` marker (the slash
// form, like //go:build — "// hot" prose comments do not count).
func hotCommentLines(pass *analysis.Pass, files []*ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isHotComment(c) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				if out[p.Filename] == nil {
					out[p.Filename] = make(map[int]bool)
				}
				out[p.Filename][p.Line] = true
			}
		}
	}
	return out
}

func isHotComment(c *ast.Comment) bool {
	if !strings.HasPrefix(c.Text, "//hot") {
		return false
	}
	rest := c.Text[len("//hot"):]
	// Accept the bare marker, a trailing free-text reason, or the
	// directive form `//hot:<reason>` — the one gofmt leaves untouched.
	return rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, ":")
}

// isAnnotated reports whether the declaration carries a //hot marker in its
// doc comment or on the line directly above it.
func isAnnotated(pass *analysis.Pass, decl *ast.FuncDecl, hotLines map[string]map[int]bool) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if isHotComment(c) {
				return true
			}
		}
	}
	p := pass.Fset.Position(decl.Pos())
	return hotLines[p.Filename][p.Line-1]
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isPointerShaped reports whether interface conversion of t stores the value
// directly in the data word with no allocation: pointers, channels, maps,
// funcs, unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func typeDesc(pass *analysis.Pass, cl *ast.CompositeLit) string {
	if t := pass.Info.TypeOf(cl); t != nil {
		return types.TypeString(t, func(*types.Package) string { return "" })
	}
	return "T"
}

func pkgLevelFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}
