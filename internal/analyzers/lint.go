package analyzers

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check. Name identifies it in findings and in
// //lint:ignore directives; Run inspects one package and reports
// through pass.Reportf.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// A Pass is one analyzer's run over one loaded package.
type Pass struct {
	*Package
	report func(token.Pos, string)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A Finding is one diagnostic that survived suppression.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Lint applies every analyzer to every package and returns the
// surviving findings sorted by file position. A finding carrying a
// //lint:ignore directive that names its analyzer is dropped; a
// directive without a justification does NOT suppress — the finding
// stays, which is what forces suppressions to explain themselves.
func Lint(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		ignored := ignores(pkg)
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, report: func(pos token.Pos, msg string) {
				p := pkg.Fset.Position(pos)
				for _, line := range []int{p.Line, p.Line - 1} {
					for _, name := range ignored[fileLine{p.Filename, line}] {
						if name == a.Name {
							return
						}
					}
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: p, Message: msg})
			}})
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
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

type fileLine struct {
	file string
	line int
}

// ignores indexes a package's //lint:ignore directives by the line they
// sit on. The syntax follows staticcheck:
//
//	//lint:ignore name1,name2 justification
//
// on the flagged line itself (trailing comment) or on the line directly
// above it. The justification is mandatory; a directive without one is
// inert.
func ignores(pkg *Package) map[fileLine][]string {
	const prefix = "//lint:ignore "
	ignored := map[fileLine][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no justification: inert by design
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				ignored[key] = append(ignored[key], strings.Split(fields[0], ",")...)
			}
		}
	}
	return ignored
}
