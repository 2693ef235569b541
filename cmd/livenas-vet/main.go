// Command livenas-vet runs the project-specific static checks of
// internal/analysis over the module: deterministic-replay taint tracking,
// context propagation to blocking points, sync/atomic consistency, arena
// lifetimes, goroutine joins, lock ordering, lockset race detection with
// guarded-by inference, asm/build-tag hygiene for the assembly kernels,
// unchecked wire-write errors, mutex lock/defer hygiene, exhaustive
// wire-message switches, and float precision churn in the hot numeric
// kernels. It is part of both scripts/ci.sh tiers.
//
// Usage:
//
//	go run ./cmd/livenas-vet [-checks c1,c2] [-skip c3] [-list] [-json] \
//	    [-j N] [-cache-dir DIR] [-stats] \
//	    [-baseline file [-prune-baseline]] [-write-baseline file] [packages]
//
// Package patterns are import-path prefixes relative to the module root:
// "./..." (default) analyses everything, "./internal/..." a subtree, and
// "./internal/sr" a single package. Findings are silenced in place with a
// `//livenas:allow <check> <why>` directive; see DESIGN.md "Correctness
// tooling".
//
// The engine behind the flags is internal/analysis's incremental driver:
// -j bounds check-level parallelism (default GOMAXPROCS) and -cache-dir
// enables the on-disk facts cache, keyed by each package's dependency-
// closure content hash, so a warm re-run after a leaf edit re-analyzes
// only the edited package's dependents and a fully-warm run type-checks
// nothing at all. Output is byte-identical for any -j.
//
// -json renders findings as a stable JSON array with module-root-relative
// paths. -baseline filters findings through a committed acceptance file
// (analysis/baseline.json): only findings absent from the baseline fail
// the gate, and entries that no longer match anything are reported as
// stale (-prune-baseline rewrites the file with the stale entries
// removed). -write-baseline regenerates that file from the current
// findings, carrying existing justifications over.
//
// Exit status is 1 when (non-baselined) findings remain, 2 on load
// failure or an invalid baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"livenas/internal/analysis"
)

func main() {
	var (
		checksFlag    = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		skipFlag      = flag.String("skip", "", "comma-separated checks to exclude from the selection")
		list          = flag.Bool("list", false, "list available checks and exit")
		jsonOut       = flag.Bool("json", false, "render findings as a JSON array with module-relative paths")
		jobs          = flag.Int("j", 0, "max parallel analysis tasks (0 = GOMAXPROCS)")
		cacheDir      = flag.String("cache-dir", "", "facts-cache directory (empty = caching off)")
		stats         = flag.Bool("stats", false, "print cache/parallelism statistics to stderr")
		baselinePath  = flag.String("baseline", "", "filter findings through this committed baseline file")
		pruneBaseline = flag.Bool("prune-baseline", false, "rewrite -baseline with stale entries removed")
		writeBaseline = flag.String("write-baseline", "", "write the current findings to this baseline file and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range analysis.AllChecks() {
			kind := "package"
			switch {
			case c.Global:
				kind = "module/global"
			case c.RunModule != nil:
				kind = "module"
			}
			fmt.Printf("%-22s [%-13s] %s\n", c.Name, kind, c.Doc)
		}
		return
	}

	checks := selectChecks(*checksFlag, *skipFlag)

	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, modPath, err := analysis.FindModule(wd)
	if err != nil {
		fatalf("%v", err)
	}

	res, err := analysis.RunDriver(root, modPath, analysis.DriverOptions{
		Checks:   checks,
		Patterns: flag.Args(),
		Jobs:     *jobs,
		CacheDir: *cacheDir,
	})
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "livenas-vet: warning: %v\n", w)
	}
	if *stats {
		s := res.Stats
		global := "none"
		switch {
		case s.GlobalRan:
			global = "ran"
		case s.GlobalReused:
			global = "cached"
		}
		fmt.Fprintf(os.Stderr, "livenas-vet: %d targets: %d analyzed, %d cached; %d packages loaded; global checks %s\n",
			s.Targets, len(s.Analyzed), len(s.Reused), s.Loaded, global)
	}
	diags := res.Diags

	if *writeBaseline != "" {
		// Best effort: carry justifications over from the old file; a
		// missing or invalid old baseline just means starting fresh.
		prev, _ := analysis.LoadBaseline(*writeBaseline)
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fatalf("%v", err)
		}
		b := analysis.NewBaseline(diags, prev)
		if err := b.WriteBaseline(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		if err := b.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "livenas-vet: wrote %s, but it will not load until justified: %v\n", *writeBaseline, err)
		}
		return
	}

	if *baselinePath != "" {
		b, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		fresh, stale := b.Apply(diags)
		if len(stale) > 0 && *pruneBaseline {
			if err := prune(*baselinePath, b, stale); err != nil {
				fatalf("prune baseline: %v", err)
			}
			fmt.Fprintf(os.Stderr, "livenas-vet: pruned %d stale entr%s from %s\n",
				len(stale), plural(len(stale), "y", "ies"), *baselinePath)
		} else {
			for _, e := range stale {
				fmt.Fprintf(os.Stderr, "livenas-vet: warning: stale baseline entry (%s in %s): finding no longer present, remove it (or run with -prune-baseline)\n", e.Check, e.Package)
			}
		}
		diags = fresh
	} else if *pruneBaseline {
		fatalf("-prune-baseline requires -baseline")
	}

	if *jsonOut {
		if err := analysis.RenderJSON(os.Stdout, diags, root); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diags {
			rel := d
			if r, err := filepath.Rel(wd, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectChecks resolves -checks and -skip into a check list, failing fast
// on unknown names so a typo can't silently disable a gate.
func selectChecks(include, exclude string) []*analysis.Check {
	checks := analysis.AllChecks()
	if include != "" {
		checks = checks[:0]
		for _, name := range strings.Split(include, ",") {
			c := analysis.CheckByName(strings.TrimSpace(name))
			if c == nil {
				fatalf("unknown check %q (try -list)", name)
			}
			checks = append(checks, c)
		}
	}
	if exclude != "" {
		skip := map[string]bool{}
		for _, name := range strings.Split(exclude, ",") {
			name = strings.TrimSpace(name)
			if analysis.CheckByName(name) == nil {
				fatalf("unknown check %q in -skip (try -list)", name)
			}
			skip[name] = true
		}
		kept := checks[:0]
		for _, c := range checks {
			if !skip[c.Name] {
				kept = append(kept, c)
			}
		}
		checks = kept
		if len(checks) == 0 {
			fatalf("-skip removed every selected check")
		}
	}
	return checks
}

// prune rewrites the baseline file without the stale entries.
func prune(path string, b *analysis.Baseline, stale []analysis.BaselineEntry) error {
	staleSet := map[string]bool{}
	for _, e := range stale {
		staleSet[e.Check+"\x00"+e.Package+"\x00"+e.Message] = true
	}
	kept := b.Findings[:0]
	for _, e := range b.Findings {
		if !staleSet[e.Check+"\x00"+e.Package+"\x00"+e.Message] {
			kept = append(kept, e)
		}
	}
	b.Findings = kept
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteBaseline(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "livenas-vet: "+format+"\n", args...)
	os.Exit(2)
}
