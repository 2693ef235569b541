package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds the module's lock-acquisition graph and flags cycles. A
// lock class is a mutex identified structurally — a named type's mutex
// field (livenas/internal/sr.Model.mu), a package-level mutex variable, or
// a type with an embedded mutex — so two instances of the same type share a
// class. The dataflow tracks the may-hold set through each function
// (Lock/RLock adds, Unlock/RUnlock removes, a deferred unlock holds to
// exit); acquiring class B while holding class A records edge A→B, with
// interprocedural edges through the callee Locks summaries and locks taken
// inside function literals nested under the launch site's held set. A cycle
// in the class graph — including a self-edge, since module mutexes are not
// reentrant and two instances of one class can be locked in opposite orders
// — is a potential deadlock and every edge on it is reported. R/W lock
// modes are deliberately not distinguished: opposite-order RLock/Lock pairs
// still deadlock under writer pressure. An edge reported in package P may
// close a cycle only together with edges contributed by other packages (Q
// acquiring B then A makes P's A-then-B a finding).
var LockOrder = &Check{
	Name: "lock-order",
	Doc: "two lock classes are acquired in inconsistent order somewhere in " +
		"the module (or one class is acquired while an instance of the same " +
		"class is already held), which can deadlock; establish a single " +
		"acquisition order or annotate a proven-safe site with " +
		"//livenas:allow lock-order",
	RunModule: runLockOrder,
}

// heldFact is the may-hold set of lock classes at a program point.
type heldFact map[string]bool

// lockFlow is the FlowProblem tracking held classes through one unit.
type lockFlow struct {
	pkg *Package
}

func (f *lockFlow) Entry() Fact { return heldFact{} }

func (f *lockFlow) Join(a, b Fact) Fact {
	am, bm := a.(heldFact), b.(heldFact)
	out := make(heldFact, len(am)+len(bm))
	for k := range am {
		out[k] = true
	}
	for k := range bm {
		out[k] = true
	}
	return out
}

func (f *lockFlow) Equal(a, b Fact) bool {
	am, bm := a.(heldFact), b.(heldFact)
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		if !bm[k] {
			return false
		}
	}
	return true
}

func (f *lockFlow) Transfer(stmt ast.Stmt, in Fact) Fact {
	acquired, released := lockOps(f.pkg, stmt)
	if len(acquired) == 0 && len(released) == 0 {
		return in
	}
	out := make(heldFact, len(in.(heldFact)))
	for k := range in.(heldFact) {
		out[k] = true
	}
	for _, c := range released {
		delete(out, c)
	}
	for _, c := range acquired {
		out[c] = true
	}
	return out
}

// lockOps extracts the lock classes a statement acquires and releases
// directly. Deferred unlocks are ignored — the lock stays held to exit —
// and function literals are opaque here (their effects are modeled at the
// reporting pass and in their own unit).
func lockOps(pkg *Package, stmt ast.Stmt) (acquired, released []string) {
	if _, ok := stmt.(*ast.DeferStmt); ok {
		return nil, nil
	}
	for _, e := range ExprsOf(stmt) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c := lockClassOf(pkg, call, "Lock", "RLock"); c != "" {
				acquired = append(acquired, c)
			}
			if c := lockClassOf(pkg, call, "Unlock", "RUnlock"); c != "" {
				released = append(released, c)
			}
			return true
		})
	}
	return acquired, released
}

// lockClassOf returns the lock class of a call to one of the named mutex
// methods, or "" when the call is not a mutex operation or the mutex cannot
// be classed (a function-local lock guards nothing shared across instances).
func lockClassOf(pkg *Package, call *ast.CallExpr, names ...string) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return ""
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return ""
	}
	recv := unparen(sel.X)
	if isSyncMutex(pkg.Info.TypeOf(recv)) {
		switch r := recv.(type) {
		case *ast.SelectorExpr:
			// owner.field — class by the owning named type.
			if named := namedTypeOf(pkg.Info.TypeOf(r.X)); named != nil {
				return typeClass(named) + "." + r.Sel.Name
			}
			// Dotted package-level var (pkg.mu).
			if obj := pkg.Info.Uses[r.Sel]; obj != nil && isPackageLevel(obj) {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		case *ast.Ident:
			if obj := pkg.Info.Uses[r]; obj != nil && isPackageLevel(obj) {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		}
		return ""
	}
	// Embedded mutex: x.Lock() where x's type promotes sync.Mutex. The
	// selection resolves to the sync method with the outer named receiver.
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			if named := namedTypeOf(pkg.Info.TypeOf(recv)); named != nil {
				return typeClass(named)
			}
		}
	}
	return ""
}

func namedTypeOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func typeClass(named *types.Named) string {
	if named.Obj().Pkg() == nil {
		return named.Obj().Name()
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// lockSummarize records every lock class fi may acquire, directly or
// through a callee, excluding function literals (a literal's locks attach
// to the statement where it appears, under the caller's held set).
// Monotone: the Locks map only grows.
func lockSummarize(fi *FuncInfo, s *Summaries, sum *FuncSummary) bool {
	if fi.Decl.Body == nil {
		return false
	}
	changed := false
	record := func(c string, pos token.Pos) {
		if _, ok := sum.Locks[c]; !ok {
			sum.Locks[c] = pos
			changed = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := lockClassOf(fi.Pkg, call, "Lock", "RLock"); c != "" {
			record(c, call.Pos())
			return true
		}
		if callee := StaticCallee(fi.Pkg.Info, call); callee != nil {
			if csum := s.Of(callee); csum != nil {
				for c, pos := range csum.Locks {
					record(c, pos)
				}
			}
		}
		return true
	})
	return changed
}

// lockEdge is one observed acquisition: to was acquired while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// runLockOrder collects the acquisition edges of every function and literal
// in the module, then reports every edge that lies on a cycle of the class
// graph.
func runLockOrder(p *ModulePass) {
	var edges []lockEdge
	seen := map[string]bool{}
	addEdge := func(from, to string, pos token.Pos) {
		key := from + "\x00" + to
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, lockEdge{from: from, to: to, pos: pos})
	}

	nodes := make([]*FuncInfo, 0, len(p.Mod.Graph.Nodes))
	nodes = append(nodes, p.Mod.Graph.Nodes...)
	sortNodesByPos(nodes)
	for _, fi := range nodes {
		if fi.Decl.Body == nil {
			continue
		}
		lockCollectUnit(p, fi.Pkg, fi.Decl.Body, addEdge)
		for _, lit := range fi.Lits {
			lockCollectUnit(p, fi.Pkg, lit.Body, addEdge)
		}
	}

	cyclic := cyclicClasses(edges)
	for _, e := range edges {
		if !(cyclic[e.from] && cyclic[e.to]) && e.from != e.to {
			continue
		}
		if e.from == e.to {
			p.Reportf(e.pos,
				"lock-order cycle: acquiring %s while an instance of %s is already held; two instances locked in opposite orders deadlock",
				e.to, e.from)
			continue
		}
		if cyclic[e.from] && cyclic[e.to] && sameCycle(edges, e.from, e.to) {
			p.Reportf(e.pos,
				"lock-order cycle: %s is acquired while holding %s, and elsewhere the order is reversed; pick one acquisition order",
				e.to, e.from)
		}
	}
}

// lockCollectUnit runs the held-set flow over one body and records the
// acquisition edges in force at each statement.
func lockCollectUnit(p *ModulePass, pkg *Package, body *ast.BlockStmt, addEdge func(from, to string, pos token.Pos)) {
	flow := &lockFlow{pkg: pkg}
	cfg := BuildCFG(body)
	facts := Forward(cfg, flow)
	WalkFacts(cfg, flow, facts, func(stmt ast.Stmt, before Fact) {
		held := sortedClasses(before.(heldFact))
		if _, ok := stmt.(*ast.DeferStmt); ok {
			// A deferred call runs at exit; conservatively treat the
			// current held set as still in force there (the common
			// lock-then-defer-unlock shape makes this exact).
			if d := stmt.(*ast.DeferStmt); d != nil {
				lockEdgesOfExpr(p, pkg, d.Call, held, addEdge)
			}
			return
		}
		for _, e := range ExprsOf(stmt) {
			lockEdgesOfExpr(p, pkg, e, held, addEdge)
		}
	})
}

// lockEdgesOfExpr records held→acquired edges for every acquisition the
// expression performs: direct Lock/RLock calls, callee summary locks, and
// locks taken inside function literals (nested under the held set).
func lockEdgesOfExpr(p *ModulePass, pkg *Package, expr ast.Expr, held []string, addEdge func(from, to string, pos token.Pos)) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			for _, cp := range sortedLockList(litMayLock(p, pkg, e)) {
				for _, h := range held {
					addEdge(h, cp.class, cp.pos)
				}
			}
			return false
		case *ast.CallExpr:
			if c := lockClassOf(pkg, e, "Lock", "RLock"); c != "" {
				for _, h := range held {
					addEdge(h, c, e.Pos())
				}
				return true
			}
			if callee := StaticCallee(pkg.Info, e); callee != nil {
				if sum := p.Mod.Sums.Of(callee); sum != nil {
					for _, cp := range sortedLockList(sum.Locks) {
						for _, h := range held {
							addEdge(h, cp.class, e.Pos())
						}
					}
				}
			}
		}
		return true
	})
}

// litMayLock computes every class a function literal may acquire, directly
// or through callees (nested literals included: they run within the same
// dynamic extent for the patterns under analysis).
func litMayLock(p *ModulePass, pkg *Package, lit *ast.FuncLit) map[string]token.Pos {
	out := map[string]token.Pos{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := lockClassOf(pkg, call, "Lock", "RLock"); c != "" {
			if _, ok := out[c]; !ok {
				out[c] = call.Pos()
			}
			return true
		}
		if callee := StaticCallee(pkg.Info, call); callee != nil {
			if sum := p.Mod.Sums.Of(callee); sum != nil {
				for c, pos := range sum.Locks {
					if _, ok := out[c]; !ok {
						out[c] = pos
					}
				}
			}
		}
		return true
	})
	return out
}

type classPos struct {
	class string
	pos   token.Pos
}

func sortedLockList(m map[string]token.Pos) []classPos {
	out := make([]classPos, 0, len(m))
	for c, pos := range m {
		out = append(out, classPos{c, pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

func sortedClasses(f heldFact) []string {
	out := make([]string, 0, len(f))
	for c := range f {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// cyclicClasses returns the classes on some cycle of the edge graph
// (members of a strongly connected component of size > 1, or with a
// self-edge).
func cyclicClasses(edges []lockEdge) map[string]bool {
	succ := map[string][]string{}
	var classes []string
	seen := map[string]bool{}
	note := func(c string) {
		if !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	for _, e := range edges {
		note(e.from)
		note(e.to)
		succ[e.from] = append(succ[e.from], e.to)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, compID := 0, 0
	compSize := map[int]int{}

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = compID
				compSize[compID]++
				if w == v {
					break
				}
			}
			compID++
		}
	}
	for _, c := range classes {
		if _, ok := index[c]; !ok {
			strongconnect(c)
		}
	}
	out := map[string]bool{}
	for _, c := range classes {
		if compSize[comp[c]] > 1 {
			out[c] = true
		}
	}
	for _, e := range edges {
		if e.from == e.to {
			out[e.from] = true
		}
	}
	return out
}

// sameCycle reports whether from and to are in the same strongly connected
// component (both reach each other), i.e. the edge lies on a cycle rather
// than merely touching two distinct cycles.
func sameCycle(edges []lockEdge, from, to string) bool {
	succ := map[string][]string{}
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	reaches := func(src, dst string) bool {
		seen := map[string]bool{}
		work := []string{src}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			if v == dst {
				return true
			}
			if seen[v] {
				continue
			}
			seen[v] = true
			work = append(work, succ[v]...)
		}
		return false
	}
	return reaches(to, from) // to→…→from closes the cycle through this edge
}
