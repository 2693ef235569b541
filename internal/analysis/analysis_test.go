package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
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
	{"hotloop", "hot-loop-precision"},
	{"telemetryhot", "telemetry-hot-path"},
	{"arenalifetime", "arena-lifetime"},
	{"goroutineleak", "goroutine-leak"},
	{"lockorder", "lock-order"},
	{"lockcross", "lock-order"},
	{"determtaint", "determinism-taint"},
	{"ctxprop", "context-propagation"},
	{"atomicmix", "atomic-consistency"},
	{"raceguard", "race-guard"},
	{"asmabi", "asm-abi"},
}

func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(token.NewFileSet(), root, "fix")
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("fixture %s: type error: %v", dir, e)
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
		{"//livenas:allow mutex-hygiene,hot-loop-precision", []string{"mutex-hygiene", "hot-loop-precision"}},
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

// TestRepoIsVetClean runs the driver over the real module and requires
// every check to pass on it after applying the committed baseline — the
// same gate `go run ./cmd/livenas-vet -baseline analysis/baseline.json
// ./...` enforces, wired into the ordinary test suite so tier-1 catches
// regressions. Stale baseline entries also fail: an entry whose finding
// was fixed must be removed, not left as a latent suppression.
//
// The cold run fills a facts cache; the unchanged re-run that follows pins
// the incremental contract on the real module (the fixture-level version is
// TestDriverCacheInvalidation): it loads and analyzes nothing, and reports
// the same findings.
func TestRepoIsVetClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := FindModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	opts := DriverOptions{CacheDir: t.TempDir()}
	cold, err := RunDriver(root, modPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cold.Warnings {
		t.Errorf("type error: %s", w)
	}
	b, err := LoadBaseline(filepath.Join(root, "analysis", "baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	fresh, stale := b.Apply(cold.Diags)
	for _, d := range fresh {
		t.Errorf("%s", d)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (%s in %s): finding no longer present, remove it from analysis/baseline.json", e.Check, e.Package)
	}

	warm, err := RunDriver(root, modPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats; st.Loaded != 0 || len(st.Analyzed) != 0 || st.GlobalRan {
		t.Errorf("fully-warm run loaded %d packages, analyzed %v, global checks ran: %v; want 0, none, false",
			st.Loaded, st.Analyzed, st.GlobalRan)
	}
	if got, want := renderDriver(t, warm, root), renderDriver(t, cold, root); got != want {
		t.Errorf("warm findings differ from cold:\n%s\n--- vs ---\n%s", got, want)
	}
}

// BenchmarkVetFullModule measures a whole-module analyzer run: load,
// type-check, call graph, summaries, and every check. This is the cost a
// developer pays per `livenas-vet ./...` invocation in the fast CI tier.
func BenchmarkVetFullModule(b *testing.B) {
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	root, modPath, err := FindModule(wd)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l := NewLoader(token.NewFileSet(), root, modPath)
		pkgs, err := l.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(pkgs, AllChecks()); len(diags) == 0 {
			b.Fatal("expected at least the baselined finding")
		}
	}
}
