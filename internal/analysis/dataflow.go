package analysis

import "go/ast"

// This file is the generic forward-dataflow half of the analysis substrate.
// A check supplies a FlowProblem — an abstract-state type with entry, join,
// equality, and a per-statement transfer function — and Forward computes the
// fixpoint over a CFG with a deterministic worklist. Facts are opaque to the
// engine; the checks use small map-based states (variable → lifecycle state,
// or a held-lock set).

// A Fact is one abstract state. Transfer and Join must treat facts as
// immutable (copy-on-write) so block-entry facts can be cached and compared.
type Fact any

// A FlowProblem defines one forward dataflow analysis.
type FlowProblem interface {
	// Entry returns the fact at function entry.
	Entry() Fact
	// Transfer returns the fact after executing stmt with fact in.
	Transfer(stmt ast.Stmt, in Fact) Fact
	// Join merges two facts at a control-flow merge point.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are indistinguishable (fixpoint test).
	Equal(a, b Fact) bool
}

// Forward runs the problem to fixpoint and returns the fact at the entry of
// every reachable block. Unreachable blocks are absent from the result.
func Forward(c *CFG, p FlowProblem) map[*CFGBlock]Fact {
	in := map[*CFGBlock]Fact{c.Entry: p.Entry()}
	// Deterministic worklist: blocks in index order, re-queued on change.
	work := []*CFGBlock{c.Entry}
	queued := map[*CFGBlock]bool{c.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		fact := in[blk]
		for _, s := range blk.Stmts {
			fact = p.Transfer(s, fact)
		}
		for _, succ := range blk.Succs {
			old, ok := in[succ]
			var merged Fact
			if !ok {
				merged = fact
			} else {
				merged = p.Join(old, fact)
			}
			if !ok || !p.Equal(old, merged) {
				in[succ] = merged
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// WalkFacts replays the fixpoint solution statement by statement: for every
// reachable block it applies Transfer in order, calling visit with the fact
// in force immediately before each statement executes. Checks use this final
// pass to emit diagnostics (the fixpoint loop itself may visit a statement
// several times with intermediate facts).
func WalkFacts(c *CFG, p FlowProblem, in map[*CFGBlock]Fact, visit func(stmt ast.Stmt, before Fact)) {
	for _, blk := range c.Blocks {
		fact, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		for _, s := range blk.Stmts {
			visit(s, fact)
			fact = p.Transfer(s, fact)
		}
	}
}
