// Package analysis implements livenas-vet, the project-specific static
// analyzer behind `go run ./cmd/livenas-vet ./...`.
//
// The analyzer is built only on the standard library (go/parser, go/ast,
// go/types): it loads the whole module from source, type-checks it with a
// recursive source importer, and runs a registry of checks that machine-
// enforce the two invariants LiveNAS's correctness hangs on — deterministic
// replay (a whole-module taint analysis from nondeterministic sources:
// wall clock, global rand, map iteration order, goroutine-completion
// order) and joined goroutines in the trainer, the inference processor and
// the transport — plus project-wide hygiene rules (discarded wire write
// errors, lock/defer pairing, exhaustive enum switches, allow directives
// that name a registered check). Load the packages with a Loader, hand
// them to Run; there is no other entry point, cache, or configuration. See
// DESIGN.md "Correctness tooling".
//
// A finding can be silenced in place with a directive comment:
//
//	//livenas:allow <check> optional free-text justification
//
// either on (or immediately above) the offending line, or in the doc
// comment of a function to suppress the check for the whole function body.
// That directive is the only suppression mechanism.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Diagnostic is one finding of one check at one source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// PkgPath is the import path of the package the finding is in;
	// livenas-vet keeps only findings inside the packages its patterns
	// matched, not their dependencies.
	PkgPath string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// A Check is one named analysis pass. Exactly one of Run and RunModule is
// set: Run inspects a single type-checked package; RunModule sees the whole
// module at once through the call-graph/CFG/summary substrate (callgraph.go,
// cfg.go, summary.go) and is how the interprocedural checks —
// goroutine-leak, determinism-taint — are built.
type Check struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// AllChecks returns the full registry in stable order.
func AllChecks() []*Check {
	return []*Check{
		UncheckedWrite,
		MutexHygiene,
		SwitchExhaustiveness,
		GoroutineLeak,
		DeterminismTaint,
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
		PkgPath: p.Pkg.Path,
	})
}

// Module is the whole-module view the interprocedural checks run against:
// every loaded package plus the lazily shared call graph and function
// summaries.
type Module struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Graph *CallGraph
	Sums  *Summaries

	filePkg map[string]*Package
}

// NewModule builds the substrate once for a package set.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, filePkg: map[string]*Package{}}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if m.Fset != nil {
				m.filePkg[m.Fset.Position(f.Pos()).Filename] = pkg
			}
		}
	}
	m.Graph = BuildCallGraph(pkgs)
	m.Sums = ComputeSummaries(m.Graph)
	return m
}

// PackageAt returns the package owning the file at position, or nil.
func (m *Module) PackageAt(pos token.Position) *Package {
	return m.filePkg[pos.Filename]
}

// ModulePass carries one module-wide check and collects its findings.
type ModulePass struct {
	Check *Check
	Mod   *Module

	supp  *suppressions
	diags *[]Diagnostic
}

// Reportf records a module-check finding unless an allow directive covers
// it, attributing the diagnostic to the package owning the position's file.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	if p.supp.suppressed(p.Check.Name, position) {
		return
	}
	pkgPath := ""
	if pkg := p.Mod.PackageAt(position); pkg != nil {
		pkgPath = pkg.Path
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
		PkgPath: pkgPath,
	})
}

// Run executes checks over every package and returns the surviving
// diagnostics sorted by file, line, column, then check name. Module-wide
// checks run once against the whole package set; the substrate (call graph
// and summaries) is built only when at least one such check is selected.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		supp := collectSuppressions(pkg.Fset, pkg.Files)
		for _, c := range checks {
			if c.Run == nil {
				continue
			}
			c.Run(&Pass{Check: c, Fset: pkg.Fset, Pkg: pkg, supp: supp, diags: &diags})
		}
	}
	var modChecks []*Check
	for _, c := range checks {
		if c.RunModule != nil {
			modChecks = append(modChecks, c)
		}
	}
	if len(modChecks) > 0 && len(pkgs) > 0 {
		mod := NewModule(pkgs)
		var allFiles []*ast.File
		for _, pkg := range pkgs {
			allFiles = append(allFiles, pkg.Files...)
		}
		supp := collectSuppressions(mod.Fset, allFiles)
		for _, c := range modChecks {
			c.RunModule(&ModulePass{Check: c, Mod: mod, supp: supp, diags: &diags})
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

// identObj resolves e to the object of a plain identifier use, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
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

// hasSegment reports whether any "/"-separated segment of the import path
// equals one of names. Package scoping (e.g. the determinism check applies
// to internal/sim but not internal/frame) keys off path segments so fixture
// packages under testdata can opt in by directory name.
func hasSegment(path string, names ...string) bool {
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			seg := path[start:i]
			for _, n := range names {
				if seg == n {
					return true
				}
			}
			start = i + 1
		}
	}
	return false
}
