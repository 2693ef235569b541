// Package analysis implements livenas-vet, the project-specific static
// analyzer behind `go run ./cmd/livenas-vet ./...`.
//
// The analyzer is built only on the standard library (go/parser, go/ast,
// go/types): it loads the whole module from source, type-checks it with a
// recursive source importer, and runs a registry of per-package hygiene
// checks: discarded wire write errors, lock/defer pairing, exhaustive enum
// switches, and allow directives that name a registered check. Each check
// sees one type-checked package at a time. Load the packages with a Loader,
// hand them to Run; there is no other entry point, cache, or
// configuration. Deterministic replay and goroutine joins are pinned by
// tests, not by this package. See DESIGN.md "Correctness tooling".
//
// A finding can be silenced in place with a directive comment:
//
//	//livenas:allow <check> optional free-text justification
//
// on (or immediately above) the offending line. That directive is the only
// suppression mechanism.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// A Diagnostic is one finding of one check at one source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// A Check is one named analysis pass; Run inspects a single type-checked
// package.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// AllChecks returns the full registry in stable order.
func AllChecks() []*Check {
	return []*Check{
		UncheckedWrite,
		MutexHygiene,
		SwitchExhaustiveness,
		UnknownAllow,
	}
}

// CheckByName resolves a check by its registry name.
func CheckByName(name string) *Check {
	for _, c := range AllChecks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Pass carries one package through one check and collects its findings.
type Pass struct {
	Check *Check
	Fset  *token.FileSet
	Pkg   *Package

	supp  *suppressions
	diags *[]Diagnostic
}

// Reportf records a finding unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.supp.suppressed(p.Check.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes checks over every package and returns the surviving
// diagnostics sorted by file, line, column, then check name.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		supp := collectSuppressions(pkg.Fset, pkg.Files)
		for _, c := range checks {
			c.Run(&Pass{Check: c, Fset: pkg.Fset, Pkg: pkg, supp: supp, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
