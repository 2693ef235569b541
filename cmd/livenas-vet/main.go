// Command livenas-vet runs the project-specific static checks of
// internal/analysis over the module: deterministic-replay taint tracking,
// goroutine joins, unchecked wire-write errors, mutex lock/defer hygiene,
// exhaustive enum switches, and allow directives that name no registered
// check. The assembly kernels' stubs and Go twins are stock go vet's, run
// on three build partitions, and lock order between the telemetry
// registry's two locks is a test's. Both scripts/ci.sh tiers run it the
// same way, with no flags.
//
// Usage:
//
//	go run ./cmd/livenas-vet [-checks c1,c2] [-skip c3] [-list] [packages]
//
// Package patterns are import-path prefixes relative to the module root:
// "./..." (default) analyses everything, "./internal/..." a subtree, and
// "./internal/sr" a single package (its dependencies are loaded for the
// interprocedural checks, but only findings inside the matched packages are
// reported). Findings are silenced in place with a
// `//livenas:allow <check> <why>` directive and in no other way; see
// DESIGN.md "Correctness tooling".
//
// Exit status is 1 when findings remain, 2 on a usage or load failure or
// when a loaded package does not type-check.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"livenas/internal/analysis"
)

func main() {
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	skipFlag := flag.String("skip", "", "comma-separated checks to exclude from the selection")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	if *list {
		for _, c := range analysis.AllChecks() {
			kind := "package"
			if c.RunModule != nil {
				kind = "module"
			}
			fmt.Printf("%-22s [%-7s] %s\n", c.Name, kind, c.Doc)
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
	pkgs, targets, err := analysis.NewLoader(token.NewFileSet(), root, modPath).LoadPackages(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}
	status := 0
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "livenas-vet: type error: %s: %v\n", p.Path, e)
			status = 2
		}
	}
	for _, d := range analysis.Run(pkgs, checks) {
		if !targets[d.PkgPath] {
			continue
		}
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "livenas-vet: "+format+"\n", args...)
	os.Exit(2)
}
