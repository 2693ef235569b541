package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked, non-test package of the module
// under analysis.
type Package struct {
	// Path is the import path ("livenas/internal/sr").
	Path string
	// ModPath is the module path the package belongs to; checks use it to
	// distinguish module-internal types from stdlib ones.
	ModPath string
	// Dir is the absolute source directory.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects soft type-check errors. A buildable tree has
	// none; the checks still run over the partial type information, and
	// livenas-vet prints the errors and exits 2.
	TypeErrors []error
}

// Loader loads and type-checks the packages of one module from source,
// using only the standard library: module-internal imports are resolved
// recursively from the module tree, everything else goes through the
// go/importer source importer (which type-checks GOROOT packages from
// source, so no compiled export data is required).
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer
	pkgs    map[string]*Package
	order   []string
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at modRoot with module
// path modPath.
func NewLoader(fset *token.FileSet, modRoot, modPath string) *Loader {
	return &Loader{
		Fset:    fset,
		ModRoot: modRoot,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadPackages loads the non-test module packages matching go-style
// patterns relative to the module root — "./..." everything, "./dir/..." a
// subtree, "./dir" one package, "." or "./" only the module-root package;
// no patterns means everything — plus, via import resolution, their
// module-internal dependency closure, which type-checking needs. pkgs
// covers everything loaded, in a deterministic import-before-importer
// order; targets names the subset the patterns matched, which is where
// findings are wanted.
func (l *Loader) LoadPackages(patterns []string) (pkgs []*Package, targets map[string]bool, err error) {
	dirs, err := moduleGoDirs(l.ModRoot)
	if err != nil {
		return nil, nil, err
	}
	targets = map[string]bool{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, nil, err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		if !matchesPattern(ip, patterns, l.ModPath) {
			continue
		}
		if _, err := l.load(ip); err != nil {
			return nil, nil, fmt.Errorf("analysis: load %s: %w", ip, err)
		}
		targets[ip] = true
	}
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	for _, ip := range l.order {
		pkgs = append(pkgs, l.pkgs[ip])
	}
	return pkgs, targets, nil
}

func matchesPattern(path string, patterns []string, modPath string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "..." {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			prefix := modPath + "/" + sub
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
			continue
		}
		if path == modPath+"/"+pat || ((pat == "" || pat == ".") && path == modPath) {
			return true
		}
	}
	return false
}

// moduleGoDirs returns, in lexical walk order, every directory under root
// that holds non-test Go files, skipping testdata, hidden, and
// underscore-prefixed trees.
func moduleGoDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// dirFor maps a module-internal import path to its source directory.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(importPath, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// load parses and type-checks one module-internal package (memoised).
func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Mirror the compiler's file selection (GOOS/GOARCH filename
		// suffixes and //go:build constraints) so per-architecture kernel
		// variants don't collide in the type-checker.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	pkg := &Package{
		Path:    importPath,
		ModPath: l.ModPath,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if partial) package even when soft errors
	// were reported; those are surfaced through TypeErrors instead.
	pkg.Types, _ = conf.Check(importPath, l.Fset, files, pkg.Info)
	l.pkgs[importPath] = pkg
	l.order = append(l.order, importPath)
	return pkg, nil
}

// Import implements types.Importer, routing module-internal paths to the
// recursive source loader and everything else to the stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
