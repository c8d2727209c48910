package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtures names, by analyzer, the testdata/src packages each runs
// over. Every analyzer has the fixture of its own name; some have more.
var fixtures = map[string][]string{
	"codecbounds": {"codecbounds", "storagepkg"},
	"ctxcrawl":    {"ctxcrawl"},
	"lockedfield": {"lockedfield"},
	"pageidpack":  {"pageidpack", "storagepkg"},
	"reflectsort": {"reflectsort", "reflectsortbench"},
	"statsonerr":  {"statsonerr"},
	"walsync":     {"walsync"},
}

// TestEveryAnalyzerHasFixture runs each registered analyzer over its
// fixture packages, so an analyzer cannot join All() without a fixture
// of its own name.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	if len(fixtures) != len(All()) {
		t.Errorf("fixtures names %d analyzers, All() has %d", len(fixtures), len(All()))
	}
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			if !slices.Contains(fixtures[a.Name], a.Name) {
				t.Fatalf("no fixture package %q in the table", a.Name)
			}
			lintFixtures(t, a)
		})
	}
}

// lintFixtures runs a over every fixture package the table names for it.
func lintFixtures(t *testing.T, a *Analyzer) {
	t.Helper()
	for _, pkg := range fixtures[a.Name] {
		lintFixture(t, a, pkg)
	}
}

// The named tests run one analyzer's table entry, so a single pass can
// be run alone with -run.

func TestCtxCrawl(t *testing.T)    { lintFixtures(t, CtxCrawl) }
func TestStatsOnErr(t *testing.T)  { lintFixtures(t, StatsOnErr) }
func TestLockedField(t *testing.T) { lintFixtures(t, LockedField) }
func TestPageIDPack(t *testing.T)  { lintFixtures(t, PageIDPack) }
func TestCodecBounds(t *testing.T) { lintFixtures(t, CodecBounds) }
func TestWalSync(t *testing.T)     { lintFixtures(t, WalSync) }
func TestReflectSort(t *testing.T) { lintFixtures(t, ReflectSort) }

// TestRepositoryLintsClean loads the module's own packages the way
// flatlint does and requires zero findings, so a lint regression fails
// go test and not only the lint gate. The benchmark/ module is outside
// the flat/... pattern.
func TestRepositoryLintsClean(t *testing.T) {
	pkgs, err := Load(".", "flat/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("flat/... matched no packages")
	}
	for _, f := range Lint(pkgs, All()) {
		t.Error(f)
	}
}

// TestUnreadableExportDataFails points every import at a file that is
// not export data: the load must fail with a type-check error, never
// lint a package whose imports did not resolve.
func TestUnreadableExportDataFails(t *testing.T) {
	roots, exports, err := goList(filepath.Join("testdata", "src", "walsync"), []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(t.TempDir(), "bogus.a")
	if err := os.WriteFile(bogus, []byte("not export data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path := range exports {
		exports[path] = bogus
	}
	_, err = check(roots, exports)
	if err == nil || !strings.Contains(err.Error(), "type-check") {
		t.Fatalf("check over unreadable export data: err = %v, want a type-check error", err)
	}
	t.Log(err)
}

// TestIgnoreNeedsJustification pins the suppression rule on a
// directive of each kind: a justified one on the line or the line
// above suppresses, a bare one does not, and one naming another
// analyzer does not.
func TestIgnoreNeedsJustification(t *testing.T) {
	const src = `package p

func f() {
	g() //lint:ignore calls justified on the line
	//lint:ignore calls justified on the line above
	g()
	//lint:ignore calls
	g()
	//lint:ignore other justified, but for another analyzer
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	calls := &Analyzer{Name: "calls", Run: func(pass *Pass) {
		ast.Inspect(pass.Files[0], func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				pass.Reportf(call.Pos(), "call")
			}
			return true
		})
	}}
	var lines []int
	for _, finding := range Lint([]*Package{{Fset: fset, Files: []*ast.File{f}}}, []*Analyzer{calls}) {
		lines = append(lines, finding.Pos.Line)
	}
	if want := []int{8, 10}; !slices.Equal(lines, want) {
		t.Fatalf("findings on lines %v, want %v", lines, want)
	}
}
