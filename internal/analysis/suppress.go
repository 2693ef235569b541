package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces an allow directive:
//
//	//livenas:allow <check>[,<check>...] optional justification
//
// Like all Go directives it is written with no space after "//".
const directivePrefix = "livenas:allow"

// suppressions indexes the allow directives of one package. A diagnostic
// is suppressed when a directive naming its check sits on the same line,
// on the line directly above, or in the doc comment of the function whose
// body contains it.
type suppressions struct {
	// lines maps file → directive line → allowed check names.
	lines map[string]map[int]map[string]bool
	// ranges holds function-body suppressions as [start, end] line spans.
	ranges []suppRange
}

type suppRange struct {
	file       string
	start, end int
	checks     map[string]bool
}

// parseDirective extracts the allowed check names from one comment, or nil
// if the comment is not an allow directive.
func parseDirective(text string) map[string]bool {
	text = strings.TrimPrefix(text, "//")
	if !strings.HasPrefix(text, directivePrefix) {
		return nil
	}
	fields := strings.Fields(text[len(directivePrefix):])
	if len(fields) == 0 {
		return nil
	}
	checks := map[string]bool{}
	for _, name := range strings.Split(fields[0], ",") {
		if name != "" {
			checks[name] = true
		}
	}
	return checks
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{lines: map[string]map[int]map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks := parseDirective(c.Text)
				if checks == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				byLine := s.lines[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					s.lines[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = map[string]bool{}
				}
				for name := range checks {
					byLine[pos.Line][name] = true
				}
			}
		}
		// A directive in a function's doc comment covers the whole
		// function, for cases like a deliberately double-precision inner
		// loop where per-line directives would drown the code.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				checks := parseDirective(c.Text)
				if checks == nil {
					continue
				}
				s.ranges = append(s.ranges, suppRange{
					file:   fset.Position(fd.Pos()).Filename,
					start:  fset.Position(fd.Pos()).Line,
					end:    fset.Position(fd.End()).Line,
					checks: checks,
				})
			}
		}
	}
	return s
}

// suppressed reports whether a directive covers the given check at pos.
func (s *suppressions) suppressed(check string, pos token.Position) bool {
	if byLine := s.lines[pos.Filename]; byLine != nil {
		if byLine[pos.Line][check] || byLine[pos.Line-1][check] {
			return true
		}
	}
	for _, r := range s.ranges {
		if r.file == pos.Filename && r.start <= pos.Line && pos.Line <= r.end && r.checks[check] {
			return true
		}
	}
	return false
}
