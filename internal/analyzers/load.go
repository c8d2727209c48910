package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package: the unit a pass runs
// on.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// listed is the part of one `go list -json` record that Load reads.
type listed struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load parses and type-checks, from source, the packages the go list
// patterns match when run in dir ("" is the current directory), in
// import-path order. Their imports are not checked from source: one
// `go list -export -deps` call builds the closure and names each
// dependency's export data, which the compiler's importer reads. Export
// data that cannot be read (say, from another toolchain) fails the load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	roots, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return check(roots, exports)
}

// goList runs `go list -export -deps` over patterns and returns the
// matched packages and every listed package's export file by import
// path.
func goList(dir string, patterns []string) ([]*listed, map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,DepOnly,Error"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var roots []*listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		m := new(listed)
		if err := dec.Decode(m); err != nil {
			return nil, nil, fmt.Errorf("go list: decode: %v", err)
		}
		if m.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", m.ImportPath, m.Error.Err)
		}
		exports[m.ImportPath] = m.Export
		if !m.DepOnly {
			roots = append(roots, m)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	return roots, exports, nil
}

// check type-checks each root from source, resolving imports through
// one gc importer over the export files.
func check(roots []*listed, exports map[string]string) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(roots))
	for _, m := range roots {
		var files []*ast.File
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var firstErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tp, _ := conf.Check(m.ImportPath, fset, files, info)
		if firstErr != nil {
			return nil, fmt.Errorf("type-check %s: %v", m.ImportPath, firstErr)
		}
		pkgs = append(pkgs, &Package{Fset: fset, Files: files, Pkg: tp, TypesInfo: info})
	}
	return pkgs, nil
}
