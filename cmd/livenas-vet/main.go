// Command livenas-vet runs the project-specific static checks of
// internal/analysis over the module: unchecked wire-write errors, mutex
// lock/defer hygiene, exhaustive enum switches, and allow directives that
// name no registered check. The assembly kernels' stubs and Go twins are
// stock go vet's, run on three build partitions; lock order between the
// telemetry registry's two locks, deterministic replay and goroutine joins
// are tests'. Both scripts/ci.sh tiers run it the same way, with no flags.
//
// Usage:
//
//	go run ./cmd/livenas-vet [-list] [packages]
//
// Package patterns are import-path prefixes relative to the module root:
// "./..." (default) analyses everything, "./internal/..." a subtree, and
// "./internal/sr" a single package (its dependencies are loaded to
// type-check it, but only findings inside the matched packages are
// reported). Findings are silenced in place with an allow directive naming
// the check and the reason, and in no other way; see DESIGN.md
// "Correctness tooling".
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

	"livenas/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	if *list {
		for _, c := range analysis.AllChecks() {
			fmt.Printf("%-22s %s\n", c.Name, c.Doc)
		}
		return
	}

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
	var matched []*analysis.Package
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "livenas-vet: type error: %s: %v\n", p.Path, e)
			status = 2
		}
		if targets[p.Path] {
			matched = append(matched, p)
		}
	}
	for _, d := range analysis.Run(matched, analysis.AllChecks()) {
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "livenas-vet: "+format+"\n", args...)
	os.Exit(2)
}
