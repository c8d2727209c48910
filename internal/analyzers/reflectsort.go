package analyzers

import (
	"go/ast"

	"flat/internal/analysis"
)

// ReflectSort keeps the reflection- and interface-driven sorts of
// package sort out of the engine: every build-time order goes through
// the keyed kernel (str.Sorter), every query-time one through
// slices.SortFunc.
var ReflectSort = &analysis.Analyzer{
	Name: "reflectsort",
	Doc: `no sort.Slice, sort.SliceStable, sort.Sort or sort.Stable in the engine packages

sort.Slice and sort.SliceStable move elements through a reflection
swapper and call their comparator through two indices, so a comparator
that derives a key recomputes it on every comparison; sort.Sort and
sort.Stable pay an interface call per comparison and per swap.
sort.SliceStable over 56-byte elements was 80 % of the bulkload's CPU
before the keyed kernel replaced it, and sort.Slice allocated a swapper
on every query over a staged delta.

Flagged in the root package and in internal/str, hilbert, rtree, core,
shard, storage and serve. Use str.Sorter where the order decides what
lands on a page (it returns the sort.SliceStable permutation, so page
files do not move) and slices.SortFunc / slices.SortStableFunc
elsewhere. The measurement and tooling packages (internal/bench,
internal/analysis, cmd/) are out of scope.`,
	Run: runReflectSort,
}

// reflectSortScope names the packages ReflectSort covers.
var reflectSortScope = map[string]bool{
	"flat": true, "str": true, "hilbert": true, "rtree": true,
	"core": true, "shard": true, "storage": true, "serve": true,
}

func runReflectSort(pass *analysis.Pass) (any, error) {
	if !reflectSortScope[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.TypesInfo, call)
			if pkg != "sort" {
				return true
			}
			switch name {
			case "Slice", "SliceStable", "Sort", "Stable":
				pass.Reportf(call.Pos(), "sort.%s in an engine package; use str.Sorter for a build-time order, slices.SortFunc otherwise", name)
			}
			return true
		})
	}
	return nil, nil
}
