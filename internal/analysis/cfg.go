package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the intraprocedural half of the analysis substrate: a
// statement-level control-flow graph over one function body. The CFG keeps
// Go statements whole — a check's transfer function walks the expressions
// inside a statement itself — and models exactly the control constructs the
// interprocedural checks need to be path-sensitive about: branches, loops
// (including labeled break/continue), switches, selects, returns, and
// panic-terminated blocks. Deferred statements are collected on the side;
// they run at every exit that is reached after the defer statement executed,
// which the dataflow transfer functions model by processing DeferStmt nodes
// in place (see check_arenalifetime.go).

// A CFGBlock is a straight-line run of statements with explicit successors.
type CFGBlock struct {
	Stmts []ast.Stmt
	Succs []*CFGBlock

	// Index is the block's position in CFG.Blocks (deterministic ordering
	// for fixpoint iteration and debugging).
	Index int
}

// A CFG is the control-flow graph of one function body. Exit is a synthetic
// empty block reached by every return statement and by falling off the end
// of the body. Panic calls and infinite constructs terminate their block
// without an Exit edge: state on those paths never reaches a normal return,
// which is exactly how the resource checks want abnormal exits treated.
type CFG struct {
	Entry  *CFGBlock
	Exit   *CFGBlock
	Blocks []*CFGBlock

	blockOf map[ast.Stmt]*CFGBlock
}

// cfgBuilder threads break/continue targets and labels through the
// recursive construction.
type cfgBuilder struct {
	cfg *CFG

	// breakTo / continueTo are the current unlabeled targets.
	breakTo    *CFGBlock
	continueTo *CFGBlock

	// labels maps a label name to its break/continue targets while the
	// labeled statement is being built.
	labels map[string]*labelTargets

	// pendingLoopLabel, when set by LabeledStmt handling, receives the next
	// loop's continue target (labeled continue support).
	pendingLoopLabel *labelTargets
}

type labelTargets struct {
	breakTo    *CFGBlock
	continueTo *CFGBlock // nil for labeled non-loops
}

// BuildCFG constructs the CFG of one function body. A nil body (declared
// externally, e.g. assembly stubs) yields a CFG whose entry is its exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{blockOf: map[ast.Stmt]*CFGBlock{}}
	b := &cfgBuilder{cfg: c, labels: map[string]*labelTargets{}}
	c.Exit = b.newBlock()
	c.Entry = b.newBlock()
	if body == nil {
		c.Entry.Succs = append(c.Entry.Succs, c.Exit)
		return c
	}
	last := b.stmts(body.List, c.Entry)
	if last != nil {
		b.edge(last, c.Exit)
	}
	return c
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(blk *CFGBlock, s ast.Stmt) {
	blk.Stmts = append(blk.Stmts, s)
	b.cfg.blockOf[s] = blk
}

// stmts appends the statement list to cur and returns the block where
// control continues, or nil when the list ends in a terminating statement.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *CFGBlock) *CFGBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/break; keep building so nested
			// function literals are still discoverable, rooted in a dead
			// block with no predecessors.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt appends one statement and returns the continuation block (nil when
// the statement terminates control flow).
func (b *cfgBuilder) stmt(s ast.Stmt, cur *CFGBlock) *CFGBlock {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(st.List, cur)

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(cur, st.Init)
		}
		b.add(cur, s) // the condition is evaluated in cur
		join := b.newBlock()
		thenB := b.newBlock()
		b.edge(cur, thenB)
		if end := b.stmts(st.Body.List, thenB); end != nil {
			b.edge(end, join)
		}
		if st.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			if end := b.stmt(st.Else, elseB); end != nil {
				b.edge(end, join)
			}
		} else {
			b.edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			b.add(cur, st.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		b.add(head, s) // condition evaluation
		after := b.newBlock()
		post := b.newBlock()
		if st.Post != nil {
			b.add(post, st.Post)
		}
		b.edge(post, head)
		if st.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.inLoop(after, post, func() {
			if end := b.stmts(st.Body.List, body); end != nil {
				b.edge(end, post)
			}
		})
		// For `for {}` with no break, after has no predecessors; the
		// dataflow engine treats such blocks as unreachable (bottom fact).
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		b.add(head, s)
		after := b.newBlock()
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.inLoop(after, head, func() {
			if end := b.stmts(st.Body.List, body); end != nil {
				b.edge(end, head)
			}
		})
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var bodyList []ast.Stmt
		if sw, ok := st.(*ast.SwitchStmt); ok {
			init, bodyList = sw.Init, sw.Body.List
		} else {
			tsw := st.(*ast.TypeSwitchStmt)
			init, bodyList = tsw.Init, tsw.Body.List
		}
		if init != nil {
			b.add(cur, init)
		}
		b.add(cur, s) // tag evaluation
		after := b.newBlock()
		hasDefault := false
		// Build case bodies; support fallthrough by chaining entry blocks.
		entries := make([]*CFGBlock, len(bodyList))
		for i := range bodyList {
			entries[i] = b.newBlock()
		}
		for i, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			b.edge(cur, entries[i])
			var next *CFGBlock
			if i+1 < len(entries) {
				next = entries[i+1]
			}
			b.inSwitch(after, func() {
				end := b.stmtsWithFallthrough(cc.Body, entries[i], next)
				if end != nil {
					b.edge(end, after)
				}
			})
		}
		if !hasDefault {
			b.edge(cur, after)
		}
		return after

	case *ast.SelectStmt:
		b.add(cur, s)
		after := b.newBlock()
		for _, cs := range st.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			entry := b.newBlock()
			b.edge(cur, entry)
			if cc.Comm != nil {
				b.add(entry, cc.Comm)
			}
			b.inSwitch(after, func() {
				if end := b.stmts(cc.Body, entry); end != nil {
					b.edge(end, after)
				}
			})
		}
		if len(st.Body.List) == 0 {
			return nil // select{} blocks forever
		}
		return after

	case *ast.ReturnStmt:
		b.add(cur, s)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		b.add(cur, s)
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				if t := b.labels[st.Label.Name]; t != nil {
					b.edge(cur, t.breakTo)
				}
			} else if b.breakTo != nil {
				b.edge(cur, b.breakTo)
			}
		case token.CONTINUE:
			if st.Label != nil {
				if t := b.labels[st.Label.Name]; t != nil && t.continueTo != nil {
					b.edge(cur, t.continueTo)
				}
			} else if b.continueTo != nil {
				b.edge(cur, b.continueTo)
			}
		case token.GOTO:
			// Rare in this module; modeled conservatively as an exit so no
			// path-sensitive fact survives a goto.
			b.edge(cur, b.cfg.Exit)
		case token.FALLTHROUGH:
			// Handled by stmtsWithFallthrough; a stray one ends the block.
		}
		return nil

	case *ast.LabeledStmt:
		// Register the label, then build the labeled statement with its
		// break/continue targets resolvable by name.
		after := b.newBlock()
		lt := &labelTargets{breakTo: after}
		b.labels[st.Label.Name] = lt
		defer delete(b.labels, st.Label.Name)
		switch ls := st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// The loop's continue target is only known inside b.stmt; mark
			// the label as loop-shaped by pointing continue at a trampoline
			// that the loop construction wires up via b.labelLoop.
			b.pendingLoopLabel = lt
			end := b.stmt(ls, cur)
			b.pendingLoopLabel = nil
			if end != nil {
				b.edge(end, after)
			}
		default:
			if end := b.stmt(st.Stmt, cur); end != nil {
				b.edge(end, after)
			}
		}
		return after

	case *ast.ExprStmt:
		b.add(cur, s)
		if isPanicCall(st.X) {
			b.edge(cur, b.cfg.Exit)
			return nil
		}
		return cur

	default:
		// Assignments, declarations, sends, incdec, defer, go, empty: plain
		// statements with fall-through control flow.
		b.add(cur, s)
		return cur
	}
}

// stmtsWithFallthrough builds a case body, routing a trailing fallthrough
// statement to next (the following case's entry block).
func (b *cfgBuilder) stmtsWithFallthrough(list []ast.Stmt, cur *CFGBlock, next *CFGBlock) *CFGBlock {
	for i, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i == len(list)-1 {
			b.add(cur, s)
			if next != nil {
				b.edge(cur, next)
			}
			return nil
		}
		if cur == nil {
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// inLoop runs build with the unlabeled break/continue targets set, also
// wiring a pending loop label's continue target.
func (b *cfgBuilder) inLoop(breakTo, continueTo *CFGBlock, build func()) {
	if b.pendingLoopLabel != nil {
		b.pendingLoopLabel.continueTo = continueTo
		b.pendingLoopLabel = nil
	}
	oldB, oldC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = breakTo, continueTo
	build()
	b.breakTo, b.continueTo = oldB, oldC
}

// inSwitch runs build with only the unlabeled break target swapped (continue
// still refers to the enclosing loop).
func (b *cfgBuilder) inSwitch(breakTo *CFGBlock, build func()) {
	old := b.breakTo
	b.breakTo = breakTo
	build()
	b.breakTo = old
}

// ExprsOf returns the expressions a CFG node evaluates itself. Control
// statements appear in blocks as their own header node (condition or tag
// evaluation) while their bodies live in successor blocks, so a transfer
// function must look only at the header expressions — walking the whole
// subtree would apply nested effects twice. DeferStmt and GoStmt are
// returned with their CallExpr so checks can special-case them.
func ExprsOf(s ast.Stmt) []ast.Expr {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{st.X}
	case *ast.AssignStmt:
		out := append([]ast.Expr{}, st.Rhs...)
		return append(out, st.Lhs...)
	case *ast.IfStmt:
		return []ast.Expr{st.Cond}
	case *ast.ForStmt:
		if st.Cond != nil {
			return []ast.Expr{st.Cond}
		}
	case *ast.RangeStmt:
		return []ast.Expr{st.X}
	case *ast.SwitchStmt:
		if st.Tag != nil {
			return []ast.Expr{st.Tag}
		}
	case *ast.TypeSwitchStmt:
		if as, ok := st.Assign.(*ast.AssignStmt); ok {
			return append([]ast.Expr{}, as.Rhs...)
		}
		if es, ok := st.Assign.(*ast.ExprStmt); ok {
			return []ast.Expr{es.X}
		}
	case *ast.ReturnStmt:
		return st.Results
	case *ast.SendStmt:
		return []ast.Expr{st.Chan, st.Value}
	case *ast.IncDecStmt:
		return []ast.Expr{st.X}
	case *ast.GoStmt:
		return []ast.Expr{st.Call}
	case *ast.DeferStmt:
		return []ast.Expr{st.Call}
	case *ast.DeclStmt:
		var out []ast.Expr
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
		return out
	}
	return nil
}

// isPanicCall reports whether e is a direct call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReachableStmts returns every statement that can execute after from
// (exclusive) on some path, following successor edges — including loop back
// edges, so statements textually before a go statement inside the same loop
// are correctly treated as reachable. Used by the goroutine-leak check to
// look for join evidence downstream of a go statement.
func (c *CFG) ReachableStmts(from ast.Stmt) []ast.Stmt {
	start := c.blockOf[from]
	if start == nil {
		return nil
	}
	var out []ast.Stmt
	// Remainder of the starting block after from.
	idx := -1
	for i, s := range start.Stmts {
		if s == from {
			idx = i
			break
		}
	}
	for i := idx + 1; i >= 0 && i < len(start.Stmts); i++ {
		out = append(out, start.Stmts[i])
	}
	seen := map[*CFGBlock]bool{}
	var walk func(*CFGBlock)
	walk = func(blk *CFGBlock) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		out = append(out, blk.Stmts...)
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	for _, s := range start.Succs {
		walk(s)
	}
	return out
}
