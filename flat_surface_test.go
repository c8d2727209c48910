package flat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// publicSurface is the package's whole exported API, sorted: top-level
// names, Type.Method for the exported methods of exported types, and
// Options.Field for the configuration, one per line. Adding or removing
// an exported identifier is an API change, so it is made here on
// purpose too.
var publicSurface = []string{
	"Box",
	"Build",
	"BuildRTree",
	"BuildSharded",
	"CubeAt",
	"DeltaStats",
	"Element",
	"ErrBusy",
	"ErrClosed",
	"ErrConsumed",
	"Index",
	"Index.AvgNeighbors",
	"Index.Bounds",
	"Index.Close",
	"Index.CountQuery",
	"Index.DeltaStats",
	"Index.DirtyShards",
	"Index.Flush",
	"Index.Len",
	"Index.NN",
	"Index.NumPartitions",
	"Index.NumShards",
	"Index.PageCounts",
	"Index.PointQuery",
	"Index.Query",
	"Index.RangeQuery",
	"Index.Rebuild",
	"Index.SeedHeight",
	"Index.ShardBounds",
	"Index.ShardGeneration",
	"Index.ShardPageFormat",
	"Index.SizeBytes",
	"Index.StageDelete",
	"Index.StageInsert",
	"Index.String",
	"Index.World",
	"Join",
	"JoinStats",
	"MBR",
	"ObjectPageCapacity",
	"Open",
	"OpenShardedWithOptions",
	"Options",
	"Options.Dir",
	"Options.Mmap",
	"Options.PageFormat",
	"Options.Shards",
	"Options.WAL",
	"Options.World",
	"PageFormat",
	"PageFormatV1",
	"PageFormatV2",
	"PageSize",
	"QueryOption",
	"QueryStats",
	"RTree",
	"RTree.Close",
	"RTree.Height",
	"RTree.Len",
	"RTree.PointQuery",
	"RTree.RangeQuery",
	"RTree.SizeBytes",
	"RTreeHilbert",
	"RTreePR",
	"RTreeSTR",
	"RTreeStrategy",
	"RTreeStrategy.String",
	"Results",
	"Results.All",
	"Results.Batches",
	"Results.Collect",
	"Results.Err",
	"Results.Stats",
	"ShardDeltaStats",
	"ShardedOptions",
	"V",
	"Vec3",
	"WithLimit",
}

// TestPublicSurface pins the exported API: it parses the package's
// non-test files and names every identifier added to or removed from
// publicSurface.
func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["flat"].Files {
		for _, decl := range f.Decls {
			got = append(got, exportedNames(decl)...)
		}
	}
	slices.Sort(got)
	for _, name := range got {
		if _, found := slices.BinarySearch(publicSurface, name); !found {
			t.Errorf("exported identifier %s is not in publicSurface", name)
		}
	}
	for _, name := range publicSurface {
		if _, found := slices.BinarySearch(got, name); !found {
			t.Errorf("publicSurface names %s, which the package no longer exports", name)
		}
	}
	if !slices.IsSorted(publicSurface) {
		t.Error("publicSurface is not sorted")
	}
}

// exportedNames lists what decl exports: its top-level names, the
// method it declares on an exported type, and Options' fields.
func exportedNames(decl ast.Decl) []string {
	var names []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []string{d.Name.Name}
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			return []string{id.Name + "." + d.Name.Name}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				names = append(names, s.Name.Name)
				if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Options" {
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							if n.IsExported() {
								names = append(names, "Options."+n.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}
