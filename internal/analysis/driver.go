package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one driver-level diagnostic: an analyzer's diagnostic that
// survived suppression, or a malformed suppression directive.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// GitHub renders the finding as a GitHub Actions error annotation, so CI
// findings surface inline on pull requests.
func (f Finding) GitHub() string {
	// Annotation messages must be single-line; the format rejects newlines.
	msg := strings.ReplaceAll(f.Message, "\n", " ")
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, msg, f.Analyzer)
}

// DirectiveName is the analyzer name under which the driver reports
// malformed `//lint:allow` directives. Directive findings are never
// themselves suppressible.
const DirectiveName = "lint"

// allowDirective is one parsed `//lint:allow <analyzer> <reason>` comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Pos
	// lines this directive covers: its own line, and the first code line
	// after its comment group (so a stack of directives above a statement
	// all apply to that statement).
	ownLine, nextLine int
	file              string
	// used records whether the directive suppressed at least one
	// diagnostic this run; an unused directive is stale (see Options).
	used bool
}

// Options tunes a driver run.
type Options struct {
	// Known lists every analyzer name `//lint:allow` directives may cite,
	// beyond the analyzers actually running. cmd/lint passes the full
	// suite here when -only/-skip selects a subset, so a directive for a
	// deselected analyzer is not misreported as naming an unknown one.
	Known []string

	// ReportStale, when set, reports every well-formed directive that
	// suppressed no diagnostic as a finding (analyzer "lint"): the waiver
	// has gone stale and must be deleted, or it silently green-lights a
	// future regression at that site. Only meaningful when every analyzer
	// the directives cite is part of the run.
	ReportStale bool
}

// Run applies every analyzer to every package with the default policy:
// stale-waiver reporting on, known names = the run set. See RunWith.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return RunWith(pkgs, analyzers, Options{ReportStale: true})
}

// RunWith applies every analyzer to every package, filters diagnostics
// through the packages' `//lint:allow <analyzer> <reason>` suppression
// comments, and returns the surviving findings sorted by position.
// Analyzers see one package at a time. A directive suppresses diagnostics
// from exactly one named analyzer, on the directive's own line or on the
// first line after its comment group.
// Directives missing a reason, or naming an analyzer outside the known
// set, are findings in their own right (analyzer "lint"), as are — under
// Options.ReportStale — directives that suppressed nothing.
func RunWith(pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers)+len(opts.Known))
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		running[a.Name] = true
	}
	for _, name := range opts.Known {
		known[name] = true
	}

	var findings []Finding
	perPkg := make(map[*Package][]allowDirective, len(pkgs))
	for _, pkg := range pkgs {
		directives, bad := scanDirectives(pkg, known)
		findings = append(findings, bad...)
		perPkg[pkg] = directives
	}

	for _, pkg := range pkgs {
		directives := perPkg[pkg]
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if i := suppressedBy(directives, a.Name, pos); i >= 0 {
					directives[i].used = true
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}

	if opts.ReportStale {
		for _, pkg := range pkgs {
			for _, d := range perPkg[pkg] {
				if d.used || !running[d.analyzer] {
					continue
				}
				findings = append(findings, Finding{Analyzer: DirectiveName, Pos: pkg.Fset.Position(d.pos),
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
	return findings, nil
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
					bad = append(bad, Finding{Analyzer: DirectiveName, Pos: pos,
						Message: "malformed //lint:allow: want //lint:allow <analyzer> <reason>"})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Finding{Analyzer: DirectiveName, Pos: pos,
						Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", name)})
					continue
				}
				if len(fields) == 1 {
					bad = append(bad, Finding{Analyzer: DirectiveName, Pos: pos,
						Message: fmt.Sprintf("//lint:allow %s requires a reason", name)})
					continue
				}
				dirs = append(dirs, allowDirective{
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
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
