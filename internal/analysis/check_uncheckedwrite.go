package analysis

import (
	"go/ast"
	"go/types"
)

// UncheckedWrite flags statement-position calls that discard the error of
// a wire/stream emit path: wire.WriteFrame, io.Writer Write methods, and
// encoder-style emitters (Encode, Flush, WriteString, ...). On a live
// ingest connection a swallowed short write silently desynchronises the
// length-prefixed protocol; the session must instead be terminated.
var UncheckedWrite = &Check{
	Name: "unchecked-write",
	Doc: "discarded error from wire.WriteFrame, io.Writer.Write, or an encoder " +
		"emit path; handle it (log and terminate the session) or discard " +
		"explicitly with `_ =`",
	Run: runUncheckedWrite,
}

// emitNames are method names treated as emit paths when their last result
// is an error.
var emitNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
	"Encode":      true,
	"Flush":       true,
	"Emit":        true,
}

// neverFails lists writer types whose emit methods are documented to
// always return a nil error; flagging them is pure noise.
var neverFails = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func runUncheckedWrite(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := unparen(st.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || !lastResultIsError(fn) {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				// Package-level function: only the wire package's emitter.
				if fn.Name() == "WriteFrame" && fn.Pkg() != nil && fn.Pkg().Name() == "wire" {
					p.Reportf(st.Pos(), "result of wire.WriteFrame is discarded; a failed wire write must end the session")
				}
				return true
			}
			if !emitNames[fn.Name()] {
				return true
			}
			if recvNeverFails(recv.Type()) {
				return true
			}
			p.Reportf(st.Pos(), "error result of %s.%s is discarded", types.TypeString(recv.Type(), types.RelativeTo(p.Pkg.Types)), fn.Name())
			return true
		})
	}
}

// calleeFunc resolves the called function or method object, if static.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func recvNeverFails(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return neverFails[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}
