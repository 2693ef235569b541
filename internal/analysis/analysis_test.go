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
	{"unknownallow", "unknown-allow"},
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

// collectWants scans fixture sources for `// want <check>` markers and
// returns the expected "file.go:line" set.
func collectWants(t *testing.T, root, check string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
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
		{"//livenas:allow mutex-hygiene,unchecked-write", []string{"mutex-hygiene", "unchecked-write"}},
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
// module-internal dependencies too (type-checking needs them) but names
// only the matched package as a target; a pattern that matches nothing is
// an error, not an empty clean run.
func TestLoadPackagesTargets(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "uncheckedwrite"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, targets, err := NewLoader(token.NewFileSet(), root, "fix").LoadPackages([]string{"./a"})
	if err != nil {
		t.Fatal(err)
	}
	var loaded []string
	for _, p := range pkgs {
		loaded = append(loaded, p.Path)
	}
	if want := []string{"fix/wire", "fix/a"}; !reflect.DeepEqual(loaded, want) {
		t.Errorf("loaded %v, want %v (dependency first)", loaded, want)
	}
	if len(targets) != 1 || !targets["fix/a"] {
		t.Errorf("targets = %v, want only fix/a", targets)
	}
	if _, _, err := NewLoader(token.NewFileSet(), root, "fix").LoadPackages([]string{"./nope"}); err == nil {
		t.Error("a pattern matching no package loaded without error")
	}
}

// TestBrokenTypeCheckSurfaced: a package that parses but does not
// type-check still loads — its errors land in Package.TypeErrors for the
// caller to report (livenas-vet exits 2 on them) — and the checks still
// run over the partial type information rather than going silent.
func TestBrokenTypeCheckSurfaced(t *testing.T) {
	root := copyFixtureModule(t, "uncheckedwrite")
	wirePath := filepath.Join(root, "wire", "wire.go")
	src, err := os.ReadFile(wirePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wirePath, append(src, "\nvar _ = undefinedSymbol\n"...), 0o644); err != nil {
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
	if len(broken) != 1 || !broken["fix/wire"] {
		t.Errorf("type errors in %v, want only fix/wire", broken)
	}
	if len(Run(pkgs, []*Check{UncheckedWrite})) == 0 {
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
// type-check, and every check. This is the cost a
// developer pays per `livenas-vet ./...` invocation in either CI tier.
func BenchmarkVetFullModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if diags := Run(loadRepo(b), AllChecks()); len(diags) != 0 {
			b.Fatalf("repo is not vet-clean: %d findings, first: %s", len(diags), diags[0])
		}
	}
}
