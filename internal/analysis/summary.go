package analysis

import (
	"go/token"
	"go/types"
)

// This file holds the per-function summaries the interprocedural checks
// propagate bottom-up through the call-graph SCCs. One shared container
// carries every check's facts so the module is summarized in a single
// BottomUp pass; each check contributes its slice of the summary from its
// own file (lockSummarize, waitSummarize, determSummarize) and reads callee
// summaries through Summaries.Of at call sites.

// A FuncSummary is the caller-visible abstract behaviour of one function.
type FuncSummary struct {
	// WaitsOnParam[i] reports that parameter i is a *sync.WaitGroup the
	// function calls Wait on — join evidence for the goroutine-leak check.
	WaitsOnParam []bool

	// Locks maps every lock class the function may acquire (directly or
	// through callees) to a representative acquisition position.
	Locks map[string]token.Pos

	// Nondet is the function's purity fact: every nondeterministic source
	// the function may observe (directly or through a callee), keyed by a
	// stable source description ("time.Now", "math/rand.Intn", "map
	// iteration order", …) mapped to the position in THIS function where
	// the taint enters (the source site or the tainting call site). An
	// empty map means the function is deterministic-replay pure as far as
	// the modeled sources go.
	Nondet map[string]token.Pos
}

// Summaries indexes the module's function summaries.
type Summaries struct {
	Graph *CallGraph
	m     map[*types.Func]*FuncSummary
}

// Of returns the summary for fn, or nil when fn is not a module function
// (callers treat nil as "unknown callee" and stay conservative).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.m[fn]
}

// ComputeSummaries builds every function's summary in callee-before-caller
// order, iterating recursive SCCs to a fixpoint. The per-check summarizers
// must be monotone (facts only flip false→true / sets only grow) so the
// fixpoint terminates.
func ComputeSummaries(g *CallGraph) *Summaries {
	s := &Summaries{Graph: g, m: map[*types.Func]*FuncSummary{}}
	for _, fi := range g.Nodes {
		s.m[fi.Obj] = &FuncSummary{
			WaitsOnParam: make([]bool, paramCount(fi.Obj)),
			Locks:        map[string]token.Pos{},
			Nondet:       map[string]token.Pos{},
		}
	}
	g.BottomUp(func(fi *FuncInfo) bool {
		sum := s.m[fi.Obj]
		changed := lockSummarize(fi, s, sum)
		if waitSummarize(fi, s, sum) {
			changed = true
		}
		if determSummarize(fi, s, sum) {
			changed = true
		}
		return changed
	})
	return s
}

// paramObjects returns the declared parameter variables of fi in signature
// order (receiver excluded).
func paramObjects(fi *FuncInfo) []*types.Var {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]*types.Var, 0, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func paramCount(fn *types.Func) int {
	if sig, ok := fn.Type().(*types.Signature); ok {
		return sig.Params().Len()
	}
	return 0
}

// paramIndexOf returns the position of obj in fi's parameter list, or -1.
func paramIndexOf(fi *FuncInfo, obj types.Object) int {
	for i, p := range paramObjects(fi) {
		if p == obj {
			return i
		}
	}
	return -1
}

// setTrue flips bits[i] to true, reporting whether that changed anything.
func setTrue(bits []bool, i int) bool {
	if i < 0 || i >= len(bits) || bits[i] {
		return false
	}
	bits[i] = true
	return true
}
