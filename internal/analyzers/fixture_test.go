package analyzers

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lintFixture loads the package testdata/src/<pkg>, applies a, and
// reports any mismatch between its findings and the package's // want
// comments, analysistest-style. Each expectation is written on the line
// it applies to:
//
//	g.mu.Lock() // want `regexp matching the diagnostic`
//
// Several expectations may follow one want. Lines carrying an inert or
// matching //lint:ignore directive are exercised too: a suppressed
// diagnostic must NOT have a want comment, which is how the fixtures
// pin the suppression mechanism itself. Fixtures import only the
// standard library and load like any other package.
func lintFixture(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", "src", pkg), ".")
	if err != nil {
		t.Fatalf("load %s: %v", pkg, err)
	}
	wants := collectWants(t, pkgs[0])
	for _, f := range Lint(pkgs, []*Analyzer{a}) {
		key := fileLine{f.Pos.Filename, f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.consumed && w.rx.MatchString(f.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.consumed {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.rx)
			}
		}
	}
}

// expectation is one // want regex at a file line.
type expectation struct {
	rx       *regexp.Regexp
	consumed bool
}

// collectWants parses every // want comment of the package.
func collectWants(t *testing.T, pkg *Package) map[fileLine][]*expectation {
	t.Helper()
	wants := map[fileLine][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, text) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					key := fileLine{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses the sequence of quoted or backquoted regexes
// after "// want".
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want patterns must be quoted or backquoted, got %q", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		pats = append(pats, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	return pats
}
