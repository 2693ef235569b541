package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicConsistency flags mixed atomic/plain access: a variable or field
// that is passed to sync/atomic (AddInt64(&x, …), LoadUint32(&f.n), …)
// anywhere in the module must be accessed through sync/atomic everywhere.
// A single plain read racing an atomic write is still a data race — the
// atomic call on one side buys nothing — and such mixes typically appear
// when telemetry counters grow a "fast path" read. Typed atomics
// (atomic.Int64 and friends) make the mix inexpressible and are the
// preferred fix; the other is a mutex on every access.
//
// Pass 1 collects atomically-accessed objects across the whole module,
// pass 2 flags plain accesses to them wherever they appear, so any package
// can change the verdict for any other.
var AtomicConsistency = &Check{
	Name: "atomic-consistency",
	Doc: "a variable accessed via sync/atomic somewhere is accessed " +
		"plainly somewhere else; use sync/atomic (or a typed atomic.Int64) " +
		"on every access, or a mutex on every access — a proven-unshared " +
		"phase (e.g. constructor init) can be annotated " +
		"//livenas:allow atomic-consistency",
	RunModule: runAtomicConsistency,
}

// atomicFuncPrefixes: the sync/atomic package-level operations whose first
// argument is a pointer to the shared word.
var atomicFuncPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"}

// isAtomicPkgFunc reports whether call is sync/atomic.F(&x, …) for a
// pointer-first-arg F.
func isAtomicPkgFunc(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "sync/atomic" {
		return false
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(sel.Sel.Name, p) {
			return true
		}
	}
	return false
}

// atomicTargetObj resolves the shared word behind an atomic call's first
// argument: &x, &s.f, &arr[i] — returning the variable or field object, or
// nil when the target is not a stable named object (map values, results of
// calls). The returned ident is the mention to exempt from pass 2.
func atomicTargetObj(info *types.Info, arg ast.Expr) (types.Object, *ast.Ident) {
	u, ok := unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	switch t := unparen(u.X).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[t].(*types.Var); ok {
			return v, t
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
			return v, t.Sel
		}
	case *ast.IndexExpr:
		// &xs[i]: consistency is per-element and index exprs rarely denote
		// the same element statically; track the backing object anyway so a
		// plain xs[j] read is at least visible.
		if id, ok := unparen(t.X).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				return v, id
			}
		}
	}
	return nil, nil
}

func runAtomicConsistency(p *ModulePass) {
	// Pass 1: every object that is the target of a sync/atomic operation,
	// plus the exact idents inside those first args (exempt from pass 2 —
	// they ARE the atomic accesses).
	atomicObjs := map[types.Object]string{} // obj -> representative op name
	exempt := map[*ast.Ident]bool{}
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicPkgFunc(info, call) || len(call.Args) == 0 {
					return true
				}
				obj, id := atomicTargetObj(info, call.Args[0])
				if obj == nil {
					return true
				}
				if _, seen := atomicObjs[obj]; !seen {
					sel := unparen(call.Fun).(*ast.SelectorExpr)
					atomicObjs[obj] = "atomic." + sel.Sel.Name
				}
				exempt[id] = true
				return true
			})
		}
	}
	if len(atomicObjs) == 0 {
		return
	}
	// Pass 2: every other mention of those objects is a plain access.
	// Mentions inside the value arguments of an atomic call count too:
	// atomic.AddInt64(&x, x) reads x plainly on the right.
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || exempt[id] {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				op, tracked := atomicObjs[obj]
				if !tracked {
					return true
				}
				p.Reportf(id.Pos(),
					"plain access to %s, which is accessed via %s elsewhere in the module; every access must be atomic (prefer a typed atomic value) or mutex-guarded",
					objName(obj), op)
				return true
			})
		}
	}
}

// objName renders a tracked object for diagnostics without positions:
// package-qualified for fields and globals, bare for locals.
func objName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}
