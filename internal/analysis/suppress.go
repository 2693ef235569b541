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
// is suppressed when a directive naming its check sits on the same line or
// on the line directly above.
type suppressions struct {
	// lines maps file → directive line → allowed check names.
	lines map[string]map[int]map[string]bool
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
	}
	return s
}

// suppressed reports whether a directive covers the given check at pos.
func (s *suppressions) suppressed(check string, pos token.Position) bool {
	byLine := s.lines[pos.Filename]
	return byLine[pos.Line][check] || byLine[pos.Line-1][check]
}
