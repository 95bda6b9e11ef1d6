package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one driver-level diagnostic: a check's report that
// survived suppression, or a malformed or stale suppression directive.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
}

// String renders the finding in file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Check)
}

// DirectiveName is the check name under which the driver reports
// malformed and stale `//lint:allow` directives. Directive findings are
// never themselves suppressible.
const DirectiveName = "lint"

// allowDirective is one parsed `//lint:allow <analyzer> <reason>` comment.
type allowDirective struct {
	analyzer string
	pos      token.Pos
	// lines this directive covers: its own line, and the first code line
	// after its comment group (so a stack of directives above a statement
	// all apply to that statement).
	ownLine, nextLine int
	file              string
	// used records whether the directive suppressed at least one
	// report this run; an unused directive is stale.
	used bool
}

// Run applies every check to every package, filters reports through the
// packages' `//lint:allow <analyzer> <reason>` suppression comments, and
// returns the surviving findings sorted by position. Checks see one
// package at a time. A directive suppresses reports from exactly one named
// check, on the directive's own line or on the first line after its
// comment group. Directives missing a reason or naming a check outside the
// run are findings in their own right (check "lint"), as are directives
// that suppressed nothing: a stale waiver must be deleted, or it silently
// green-lights a future regression at that site.
func Run(pkgs []*Package, checks []Check) []Finding {
	known := make(map[string]bool, len(checks))
	for _, c := range checks {
		known[c.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		directives, bad := scanDirectives(pkg, known)
		findings = append(findings, bad...)
		for _, c := range checks {
			c.Run(pkg, func(p token.Pos, format string, args ...any) {
				pos := pkg.Fset.Position(p)
				if i := suppressedBy(directives, c.Name, pos); i >= 0 {
					directives[i].used = true
					return
				}
				findings = append(findings, Finding{Check: c.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
			})
		}
		for _, d := range directives {
			if !d.used {
				findings = append(findings, Finding{Check: DirectiveName, Pos: pkg.Fset.Position(d.pos),
					Message: fmt.Sprintf("stale //lint:allow %s: the analyzer no longer fires here — delete the waiver", d.analyzer)})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings
}

// scanDirectives collects well-formed allow directives from a package's
// comments and reports malformed ones as findings.
func scanDirectives(pkg *Package, known map[string]bool) ([]allowDirective, []Finding) {
	var dirs []allowDirective
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			groupNext := pkg.Fset.Position(cg.End()).Line + 1
			for _, c := range cg.List {
				// Both comment forms carry directives: //lint:allow ... and
				// /*lint:allow ...*/ (the latter lets a directive share a
				// line with another comment, e.g. in golden fixtures).
				body := c.Text
				if strings.HasPrefix(body, "/*") {
					body = strings.TrimSuffix(body[2:], "*/")
				} else {
					body = strings.TrimPrefix(body, "//")
				}
				text, ok := strings.CutPrefix(body, "lint:allow")
				if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad = append(bad, Finding{Check: DirectiveName, Pos: pos,
						Message: "malformed //lint:allow: want //lint:allow <analyzer> <reason>"})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Finding{Check: DirectiveName, Pos: pos,
						Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", name)})
					continue
				}
				if len(fields) == 1 {
					bad = append(bad, Finding{Check: DirectiveName, Pos: pos,
						Message: fmt.Sprintf("//lint:allow %s requires a reason", name)})
					continue
				}
				dirs = append(dirs, allowDirective{
					analyzer: name,
					pos:      c.Pos(),
					ownLine:  pos.Line,
					nextLine: groupNext,
					file:     pos.Filename,
				})
			}
		}
	}
	return dirs, bad
}

// suppressedBy returns the index of the first directive for the given
// analyzer that covers pos, or -1 if none does.
func suppressedBy(dirs []allowDirective, analyzer string, pos token.Position) int {
	for i, d := range dirs {
		if d.analyzer != analyzer || d.file != pos.Filename {
			continue
		}
		if pos.Line == d.ownLine || pos.Line == d.nextLine {
			return i
		}
	}
	return -1
}
