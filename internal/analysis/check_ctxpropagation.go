package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ContextPropagation verifies that cancellation actually reaches the
// blocking points of the concurrency-bearing packages. Two rules:
//
//  1. In a function that takes a context.Context, every blocking operation —
//     a channel send or receive, a select without escape, sync.WaitGroup.Wait,
//     time.Sleep, blocking net I/O — must be cancellable: either wrapped in a
//     select that also has a <-ctx.Done() case (or a default), or delegated
//     to a callee that receives the context. A call to a module callee the
//     summaries prove may block uncancellably (FuncSummary.BlockPos) is
//     reported at the call site when the context is not threaded through.
//
//  2. A context stored into a struct field must be consulted somewhere in
//     the module (Done/Err/Deadline, a select, or passed on); a context
//     that is stored but never consulted is cancellation theater — Callers
//     believe the value they pass can stop work, and it cannot.
//
// Rule 2 looks at every use of a field across the module, so its findings
// can change when any package changes.
var ContextPropagation = &Check{
	Name: "context-propagation",
	Doc: "a blocking operation reachable from a ctx-taking function cannot " +
		"be cancelled (no select on ctx.Done, context not threaded " +
		"through), or a context is stored in a field nobody ever consults; " +
		"guard the block or annotate a proven-bounded wait with " +
		"//livenas:allow context-propagation",
	RunModule: runContextPropagation,
}

// ctxScope: the packages whose ctx-taking functions are audited.
var ctxScope = []string{"core", "sweep", "fleet", "transport", "edge", "sim", "sr", "nn", "cmd"}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// ctxParams returns the context.Context parameters of fi in order.
func ctxParams(fi *FuncInfo) []*types.Var {
	var out []*types.Var
	for _, p := range paramObjects(fi) {
		if isContextType(p.Type()) {
			out = append(out, p)
		}
	}
	return out
}

// isCtxConsult reports whether call is a Done/Err/Deadline call on a
// context-typed receiver.
func isCtxConsult(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Done", "Err", "Deadline":
		return isContextType(info.TypeOf(sel.X))
	}
	return false
}

// isDoneRecv reports whether e is a receive from some context's Done
// channel: <-x.Done() (select cases reach here through their comm exprs).
func isDoneRecv(info *types.Info, e ast.Expr) bool {
	u, ok := unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	call, ok := unparen(u.X).(*ast.CallExpr)
	return ok && isCtxConsult(info, call)
}

// selectGuarded reports whether a select statement can always escape: it has
// a default clause or a case receiving from a context's Done channel.
func selectGuarded(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if isDoneRecv(info, s.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				if isDoneRecv(info, r) {
					return true
				}
			}
		}
	}
	return false
}

// ctxSummarize contributes two facts: which context parameters fi consults
// (directly, via a derived context, or by passing them on), and whether fi
// may block without observing cancellation (BlockPos/BlockDesc). Monotone:
// ConsultsCtx bits only flip false→true and BlockPos is set at most once.
func ctxSummarize(fi *FuncInfo, s *Summaries, sum *FuncSummary) bool {
	if fi.Decl.Body == nil {
		return false
	}
	info := fi.Pkg.Info
	changed := false

	// derived: objects that alias or derive from a ctx param (ctx2 :=
	// context.WithTimeout(ctx, …), c := ctx). One level of local flow is
	// enough for the code shapes in this module.
	derived := map[types.Object]int{} // object -> param index
	for i, p := range ctxParams(fi) {
		derived[p] = paramIndexOf(fi, p)
		_ = i
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			srcIdx := -1
			switch r := unparen(rhs).(type) {
			case *ast.Ident:
				if idx, ok := derived[info.Uses[r]]; ok {
					srcIdx = idx
				}
			case *ast.CallExpr:
				// context.WithCancel/WithTimeout/WithDeadline/WithValue(ctx, …)
				for _, arg := range r.Args {
					if id, ok := unparen(arg).(*ast.Ident); ok {
						if idx, ok := derived[info.Uses[id]]; ok && isContextType(info.TypeOf(arg)) {
							srcIdx = idx
						}
					}
				}
			}
			if srcIdx < 0 || i >= len(as.Lhs) {
				continue
			}
			if id, ok := unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = srcIdx
				} else if obj := info.Uses[id]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = srcIdx
				}
			}
		}
		return true
	})

	paramIdxOfExpr := func(e ast.Expr) int {
		if id, ok := unparen(e).(*ast.Ident); ok {
			if idx, ok := derived[info.Uses[id]]; ok {
				return idx
			}
		}
		return -1
	}

	markConsulted := func(idx int) {
		if setTrue(sum.ConsultsCtx, idx) {
			changed = true
		}
	}
	// A //livenas:allow context-propagation directive in the function's doc
	// comment asserts its waits are bounded (e.g. a pool join after close,
	// where workers provably drain); withhold the blocking fact at the
	// source so one justification clears every transitive caller.
	blockAllowed := docAllows(fi.Decl, ContextPropagation.Name)
	setBlock := func(pos token.Pos, desc string) {
		if !blockAllowed && sum.BlockPos == token.NoPos {
			sum.BlockPos = pos
			sum.BlockDesc = desc
			changed = true
		}
	}

	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectStmt:
			for _, c := range e.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range cc.Body {
					ast.Inspect(st, inspect)
				}
			}
			// The comm clauses themselves: consults via Done receives.
			ast.Inspect(e, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isCtxConsult(info, call) {
					if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
						if idx := paramIdxOfExpr(sel.X); idx >= 0 {
							markConsulted(idx)
						}
					}
				}
				return true
			})
			if !selectGuarded(info, e) {
				setBlock(e.Pos(), "select without escape")
			}
			return false
		case *ast.SendStmt:
			setBlock(e.Pos(), "channel send")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				if isDoneRecv(info, e) {
					if call, ok := unparen(e.X).(*ast.CallExpr); ok {
						if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
							if idx := paramIdxOfExpr(sel.X); idx >= 0 {
								markConsulted(idx)
							}
						}
					}
					// Waiting for cancellation itself is a bounded wait.
					return true
				}
				setBlock(e.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if isCtxConsult(info, e) {
				if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok {
					if idx := paramIdxOfExpr(sel.X); idx >= 0 {
						markConsulted(idx)
					}
				}
				return true
			}
			if desc := stdBlockingCall(info, e); desc != "" {
				setBlock(e.Pos(), desc)
				return true
			}
			callee := StaticCallee(info, e)
			csum := s.Of(callee)
			// Context arguments passed on: to a module callee that consults
			// them, or (conservatively) to any non-module callee.
			ctxArgPassed := false
			ctxArgConsultedByCallee := false
			for ai, arg := range e.Args {
				idx := paramIdxOfExpr(arg)
				if idx < 0 || !isContextType(info.TypeOf(arg)) {
					continue
				}
				ctxArgPassed = true
				if csum == nil {
					// Unknown callee (stdlib, interface, func value):
					// assume it consults.
					markConsulted(idx)
					ctxArgConsultedByCallee = true
				} else if ai < len(csum.ConsultsCtx) && csum.ConsultsCtx[ai] {
					markConsulted(idx)
					ctxArgConsultedByCallee = true
				}
			}
			// A callee that may block uncancellably blocks us too — unless
			// we handed it a context it consults.
			if csum != nil && csum.BlockPos != token.NoPos && !(ctxArgPassed && ctxArgConsultedByCallee) {
				setBlock(e.Pos(), csum.BlockDesc)
			}
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, inspect)
	return changed
}

// stdBlockingCall classifies direct calls into well-known blocking stdlib
// operations, returning a short description or "".
func stdBlockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// wg.Wait() on a sync.WaitGroup.
	if sel.Sel.Name == "Wait" && len(call.Args) == 0 && isWaitGroupExpr(info, sel.X) {
		return "WaitGroup.Wait"
	}
	// time.Sleep, and package-level net dial/listen.
	if id, ok := unparen(sel.X).(*ast.Ident); ok {
		if pkg, ok := info.Uses[id].(*types.PkgName); ok {
			switch pkg.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Sleep" {
					return "time.Sleep"
				}
			case "net":
				switch sel.Sel.Name {
				case "Dial", "DialTimeout", "DialUDP", "DialTCP", "Listen", "ListenPacket", "ListenUDP", "ListenTCP":
					return "net." + sel.Sel.Name
				}
			}
		}
	}
	// Conn I/O: Read/Write/Accept on a net type.
	switch sel.Sel.Name {
	case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
		t := info.TypeOf(sel.X)
		if named := namedTypeOf(t); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net" {
			return "net I/O"
		}
	}
	return ""
}

func runContextPropagation(p *ModulePass) {
	nodes := make([]*FuncInfo, 0, len(p.Mod.Graph.Nodes))
	for _, fi := range p.Mod.Graph.Nodes {
		if hasSegment(fi.Pkg.Path, ctxScope...) && fi.Decl.Body != nil {
			nodes = append(nodes, fi)
		}
	}
	sortNodesByPos(nodes)
	for _, fi := range nodes {
		if len(ctxParams(fi)) > 0 {
			auditCtxFunc(p, fi)
		}
	}
	reportStoredContexts(p)
}

// auditCtxFunc reports the uncancellable blocking points of one ctx-taking
// function (function literals included: they capture the context).
func auditCtxFunc(p *ModulePass, fi *FuncInfo) {
	info := fi.Pkg.Info
	name := fi.Obj.Name()
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectStmt:
			if !selectGuarded(info, e) {
				p.Reportf(e.Pos(),
					"select in ctx-taking %s blocks without a <-ctx.Done() case or default; cancellation cannot interrupt it", name)
			}
			// Case bodies still audited; the comm ops themselves are covered
			// by the select-level verdict.
			for _, c := range e.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, inspect)
					}
				}
			}
			return false
		case *ast.SendStmt:
			p.Reportf(e.Pos(),
				"channel send in ctx-taking %s is not guarded by a select on ctx.Done(); it can block past cancellation", name)
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && !isDoneRecv(info, e) {
				p.Reportf(e.Pos(),
					"channel receive in ctx-taking %s is not guarded by a select on ctx.Done(); it can block past cancellation", name)
			}
		case *ast.CallExpr:
			if desc := stdBlockingCall(info, e); desc != "" {
				p.Reportf(e.Pos(),
					"%s in ctx-taking %s blocks without observing cancellation; use a select on ctx.Done()", desc, name)
				return true
			}
			callee := StaticCallee(info, e)
			if callee == nil {
				return true
			}
			csum := p.Mod.Sums.Of(callee)
			if csum == nil || csum.BlockPos == token.NoPos {
				return true
			}
			// Context threaded through to a consulting callee: cancellable.
			for ai, arg := range e.Args {
				if isContextType(info.TypeOf(arg)) && ai < len(csum.ConsultsCtx) && csum.ConsultsCtx[ai] {
					return true
				}
			}
			ctxArg := false
			for _, arg := range e.Args {
				if isContextType(info.TypeOf(arg)) {
					ctxArg = true
				}
			}
			if ctxArg {
				p.Reportf(e.Pos(),
					"%s receives a context but may still block on %s without consulting it; fix the callee or guard this call", callee.Name(), csum.BlockDesc)
			} else {
				p.Reportf(e.Pos(),
					"call to %s may block on %s and cannot be cancelled: it takes no context; thread ctx through the callee", callee.Name(), csum.BlockDesc)
			}
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, inspect)
}

// reportStoredContexts implements rule 2: a struct field of type
// context.Context that is assigned somewhere but whose value is never read
// anywhere in the module. Stores are assignments to the field and composite
// literal values; every other mention (x.ctx.Done(), passing x.ctx on,
// copying it out) counts as a consult.
func reportStoredContexts(p *ModulePass) {
	type store struct {
		obj types.Object
		pos token.Pos
	}
	var stores []store
	consulted := map[types.Object]bool{}

	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			storeKeys := map[*ast.Ident]bool{} // idents that ARE store targets
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range e.Lhs {
						if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
							if obj := info.Uses[sel.Sel]; obj != nil && isCtxField(obj) {
								storeKeys[sel.Sel] = true
								stores = append(stores, store{obj, sel.Pos()})
							}
						}
					}
				case *ast.CompositeLit:
					for _, elt := range e.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if obj := info.Uses[key]; obj != nil && isCtxField(obj) {
									storeKeys[key] = true
									stores = append(stores, store{obj, kv.Pos()})
								}
							}
						}
					}
				}
				return true
			})
			// Every other mention of a ctx field is a consult.
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || storeKeys[id] {
					return true
				}
				if obj := info.Uses[id]; obj != nil && isCtxField(obj) {
					consulted[obj] = true
				}
				return true
			})
		}
	}
	seen := map[types.Object]bool{}
	for _, st := range stores {
		if consulted[st.obj] || seen[st.obj] {
			continue
		}
		seen[st.obj] = true
		p.Reportf(st.pos,
			"context stored in field %s is never consulted anywhere in the module; cancellation cannot propagate through it", fieldName(st.obj))
	}
}

// isCtxField reports whether obj is a struct field of type context.Context.
func isCtxField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField() && isContextType(v.Type())
}

// fieldName renders a field as Pkg.Type-less best-effort qualified name.
func fieldName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}
