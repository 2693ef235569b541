package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SwitchExhaustiveness flags a switch over a module-defined enum type
// (a named integer type with declared constants, e.g. core.Scheme) that
// has no default clause and does not cover every constant. Adding a
// scheme or a fleet state then flags every non-exhaustive dispatch in the
// tree instead of silently skipping the new constant there.
var SwitchExhaustiveness = &Check{
	Name: "switch-exhaustiveness",
	Doc: "default-less switch over a module enum type (e.g. core.Scheme) " +
		"that misses constants; add the missing cases, a default clause, " +
		"or //livenas:allow switch-exhaustiveness",
	Run: runSwitchExhaustiveness,
}

func runSwitchExhaustiveness(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := p.Pkg.Info.TypeOf(sw.Tag)
			named := moduleEnumType(tagType, p.Pkg.ModPath)
			if named == nil {
				return true
			}
			consts := enumConstants(named)
			if len(consts) < 2 {
				return true
			}
			covered := map[string]bool{}
			for _, cc := range sw.Body.List {
				clause, ok := cc.(*ast.CaseClause)
				if !ok {
					continue
				}
				if clause.List == nil {
					return true // default clause handles future constants
				}
				for _, e := range clause.List {
					if tv, ok := p.Pkg.Info.Types[e]; ok && tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			var missing []string
			for val, name := range consts {
				if !covered[val] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				p.Reportf(sw.Pos(), "switch over %s is not exhaustive: missing %s",
					types.TypeString(named, types.RelativeTo(p.Pkg.Types)), strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// moduleEnumType returns the named type if t is an integer type defined
// inside the module under analysis.
func moduleEnumType(t types.Type, modPath string) *types.Named {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	path := obj.Pkg().Path()
	if path != modPath && !strings.HasPrefix(path, modPath+"/") {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

// enumConstants maps exact constant value → first declared constant name
// for every package-level constant of the enum's type.
func enumConstants(named *types.Named) map[string]string {
	out := map[string]string{}
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		if _, dup := out[key]; !dup {
			out[key] = c.Name()
		}
	}
	return out
}
