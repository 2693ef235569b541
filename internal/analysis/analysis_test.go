package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureChecks pairs each check with its testdata fixture module. Every
// fixture seeds violations (marked `// want <check>` on the flagged line)
// and suppressed or out-of-scope instances (unmarked), so the test proves
// both that the check fires and that //livenas:allow and package scoping
// are honoured.
var fixtureChecks = []struct {
	dir   string
	check string
}{
	{"uncheckedwrite", "unchecked-write"},
	{"mutexhygiene", "mutex-hygiene"},
	{"exhaustive", "switch-exhaustiveness"},
	{"goroutineleak", "goroutine-leak"},
	{"lockorder", "lock-order"},
	{"lockcross", "lock-order"},
	{"determtaint", "determinism-taint"},
	{"asmabi", "asm-abi"},
}

func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	return loadModule(t, root, "fix")
}

// loadModule loads every package of the module at root and fails the test
// on any type error.
func loadModule(tb testing.TB, root, modPath string) []*Package {
	tb.Helper()
	pkgs, _, err := NewLoader(token.NewFileSet(), root, modPath).LoadPackages(nil)
	if err != nil {
		tb.Fatalf("load %s: %v", root, err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			tb.Errorf("type error: %s: %v", p.Path, e)
		}
	}
	return pkgs
}

func TestChecksOnFixtures(t *testing.T) {
	for _, tc := range fixtureChecks {
		t.Run(tc.check, func(t *testing.T) {
			check := CheckByName(tc.check)
			if check == nil {
				t.Fatalf("unknown check %q", tc.check)
			}
			pkgs := loadFixture(t, tc.dir)
			got := map[string]bool{}
			for _, d := range Run(pkgs, []*Check{check}) {
				if d.Check != tc.check {
					t.Errorf("diagnostic from wrong check: %s", d)
				}
				got[fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)] = true
			}
			want := collectWants(t, filepath.Join("testdata", "src", tc.dir), tc.check)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want markers", tc.dir)
			}
			for k := range want {
				if !got[k] {
					t.Errorf("expected a %s diagnostic at %s, got none", tc.check, k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected %s diagnostic at %s", tc.check, k)
				}
			}
		})
	}
}

// collectWants scans fixture sources (.go and .s files — the asm-abi check
// reports into assembly files) for `// want <check>` markers and returns the
// expected "file.go:line" set.
func collectWants(t *testing.T, root, check string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || (!strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s")) {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			fields := strings.Fields(marker)
			if len(fields) == 0 || fields[0] != check {
				t.Errorf("%s:%d: malformed want marker %q", path, line, marker)
				continue
			}
			want[fmt.Sprintf("%s:%d", filepath.Base(path), line)] = true
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//livenas:allow determinism", []string{"determinism"}},
		{"//livenas:allow determinism wall clock is the point here", []string{"determinism"}},
		{"//livenas:allow mutex-hygiene,lock-order", []string{"mutex-hygiene", "lock-order"}},
		{"// livenas:allow determinism", nil}, // directives take no space after //
		{"//livenas:allow", nil},
		{"// plain comment", nil},
	}
	for _, tc := range cases {
		got := parseDirective(tc.text)
		if len(got) != len(tc.want) {
			t.Errorf("parseDirective(%q) = %v, want %v", tc.text, got, tc.want)
			continue
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("parseDirective(%q) missing %q", tc.text, name)
			}
		}
	}
}

// TestMatchPatterns pins the go-tooling meaning of each pattern shape; in
// particular "." selects only the module-root package (a regression guard:
// it used to match everything, so `livenas-vet .` silently analyzed the
// whole module).
func TestMatchPatterns(t *testing.T) {
	all := []string{"fix", "fix/a", "fix/a/b", "fix/c"}
	cases := []struct {
		patterns []string
		want     []string
	}{
		{nil, all},
		{[]string{"./..."}, all},
		{[]string{"..."}, all},
		{[]string{"."}, []string{"fix"}},
		{[]string{"./"}, []string{"fix"}},
		{[]string{"./a"}, []string{"fix/a"}},
		{[]string{"./a/..."}, []string{"fix/a", "fix/a/b"}},
		{[]string{"./a", "./c"}, []string{"fix/a", "fix/c"}},
		{[]string{"./nope"}, nil},
	}
	for _, tc := range cases {
		var got []string
		for _, ip := range all {
			if matchesPattern(ip, tc.patterns, "fix") {
				got = append(got, ip)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("patterns %v match %v, want %v", tc.patterns, got, tc.want)
		}
	}
}

// copyFixtureModule copies a testdata module into a temp dir so the test
// can edit files without touching the checked-in fixture.
func copyFixtureModule(t *testing.T, fixture string) string {
	t.Helper()
	src := filepath.Join("testdata", "src", fixture)
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestLoadPackagesTargets: a sub-tree pattern loads the matched package's
// module-internal dependencies too (the interprocedural checks need callee
// bodies) but names only the matched package as a target; a pattern that
// matches nothing is an error, not an empty clean run.
func TestLoadPackagesTargets(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "determtaint"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, targets, err := NewLoader(token.NewFileSet(), root, "fix").LoadPackages([]string{"./sim"})
	if err != nil {
		t.Fatal(err)
	}
	var loaded []string
	for _, p := range pkgs {
		loaded = append(loaded, p.Path)
	}
	if want := []string{"fix/util", "fix/sim"}; !reflect.DeepEqual(loaded, want) {
		t.Errorf("loaded %v, want %v (dependency first)", loaded, want)
	}
	if len(targets) != 1 || !targets["fix/sim"] {
		t.Errorf("targets = %v, want only fix/sim", targets)
	}
	if _, _, err := NewLoader(token.NewFileSet(), root, "fix").LoadPackages([]string{"./nope"}); err == nil {
		t.Error("a pattern matching no package loaded without error")
	}
}

// TestLockOrderCrossPackage pins lock-order on a cycle split across two
// packages: p takes A before B, q takes B before A, and the shared classes
// live in a third package both import — so neither half of the cycle is
// visible from the other's dependency closure. Fixing q's inversion must
// clear p's finding too, and reintroducing it must surface a finding in p,
// not just in the edited package.
func TestLockOrderCrossPackage(t *testing.T) {
	root := copyFixtureModule(t, "lockcross")
	findingPkgs := func() map[string]bool {
		t.Helper()
		in := map[string]bool{}
		for _, d := range Run(loadModule(t, root, "fix"), []*Check{LockOrder}) {
			in[d.PkgPath] = true
		}
		return in
	}
	qPath := filepath.Join(root, "q", "q.go")
	inverted, err := os.ReadFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	consistent := []byte(`// Package q now takes the locks in the same order as p.
package q

import "fix/locks"

func AthenB(a *locks.A, b *locks.B) {
	a.Mu.Lock()
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Unlock()
}
`)

	if in := findingPkgs(); !in["fix/p"] || !in["fix/q"] {
		t.Fatalf("findings in %v, want both fix/p and fix/q", in)
	}
	if err := os.WriteFile(qPath, consistent, 0o644); err != nil {
		t.Fatal(err)
	}
	if in := findingPkgs(); len(in) != 0 {
		t.Errorf("after fixing q: findings persist in %v", in)
	}
	if err := os.WriteFile(qPath, inverted, 0o644); err != nil {
		t.Fatal(err)
	}
	if in := findingPkgs(); !in["fix/p"] || !in["fix/q"] {
		t.Errorf("after reintroducing q's inversion: findings in %v, want both fix/p and fix/q", in)
	}
}

// TestBrokenTypeCheckSurfaced: a package that parses but does not
// type-check still loads — its errors land in Package.TypeErrors for the
// caller to report (livenas-vet exits 2 on them) — and the checks still
// run over the partial type information rather than going silent.
func TestBrokenTypeCheckSurfaced(t *testing.T) {
	root := copyFixtureModule(t, "determtaint")
	utilPath := filepath.Join(root, "util", "util.go")
	src, err := os.ReadFile(utilPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(utilPath, append(src, "\nvar _ = undefinedSymbol\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := NewLoader(token.NewFileSet(), root, "fix").LoadPackages(nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := map[string]bool{}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			broken[p.Path] = true
		}
	}
	if len(broken) != 1 || !broken["fix/util"] {
		t.Errorf("type errors in %v, want only fix/util", broken)
	}
	if len(Run(pkgs, []*Check{DeterminismTaint})) == 0 {
		t.Error("no findings on the broken tree; the fixture seeds violations")
	}
}

// TestRepoIsVetClean loads the real module and requires every check to
// pass on it with no type errors — the same gate `go run ./cmd/livenas-vet
// ./...` enforces, wired into the ordinary test suite so tier-1 catches
// regressions.
func TestRepoIsVetClean(t *testing.T) {
	for _, d := range Run(loadRepo(t), AllChecks()) {
		t.Errorf("%s", d)
	}
}

// loadRepo loads every package of the enclosing module.
func loadRepo(tb testing.TB) []*Package {
	tb.Helper()
	wd, err := os.Getwd()
	if err != nil {
		tb.Fatal(err)
	}
	root, modPath, err := FindModule(wd)
	if err != nil {
		tb.Fatal(err)
	}
	return loadModule(tb, root, modPath)
}

// BenchmarkVetFullModule measures a whole-module analyzer run: load,
// type-check, call graph, summaries, and every check. This is the cost a
// developer pays per `livenas-vet ./...` invocation in either CI tier.
func BenchmarkVetFullModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if diags := Run(loadRepo(b), AllChecks()); len(diags) != 0 {
			b.Fatalf("repo is not vet-clean: %d findings, first: %s", len(diags), diags[0])
		}
	}
}
