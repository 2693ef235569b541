package analysis

import "strings"

// UnknownAllow flags a //livenas:allow directive that names a check the
// registry does not hold. Such a directive silences nothing — a deleted or
// misspelt check leaves it behind — yet reads as a reviewed exception.
var UnknownAllow = &Check{
	Name: "unknown-allow",
	Doc: "//livenas:allow directive naming a check that is not registered; " +
		"drop the directive or fix the check name",
}

// benchmarkRetired names the retired checks whose directives the module's
// benchmark package still carries. That package changes only together with
// the benchmark it defines, so these names are tolerated there, and only
// there, until the benchmark drops them; every other check still runs on it.
var benchmarkRetired = map[string]bool{"race-guard": true}

// Run is attached here because runUnknownAllow reads the registry, which
// holds UnknownAllow itself.
func init() { UnknownAllow.Run = runUnknownAllow }

func runUnknownAllow(p *Pass) {
	inBenchmark := strings.TrimPrefix(p.Pkg.Path, p.Pkg.ModPath+"/") == "benchmark"
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for name := range parseDirective(c.Text) {
					if CheckByName(name) == nil && !(inBenchmark && benchmarkRetired[name]) {
						p.Reportf(c.Slash, "//livenas:allow names %q, which is not a registered check", name)
					}
				}
			}
		}
	}
}
