package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"flat/internal/analysis"
)

// PageIDPack bans raw shift/mask arithmetic on PageID values outside
// internal/storage. The 16-bit shard tag at bit 32 is a storage-layer
// encoding detail; every other layer must pack and unpack ids through
// storage.ShardPageID/SplitShardPageID (the MultiPager's helpers), so
// the layout can evolve in exactly one place.
var PageIDPack = &analysis.Analyzer{
	Name: "pageidpack",
	Doc: `no raw shift/mask arithmetic on PageID outside internal/storage

Flags, outside the storage package:

  - a shift or mask binary expression (<<, >>, &, |, ^, &^) whose
    operand is a PageID or a conversion chain rooted at one, e.g.
    uint64(id) >> 32 or id & mask;
  - a conversion to PageID whose operand contains shift/mask
    arithmetic, e.g. PageID(tag<<32 | local).

Construction and deconstruction of sharded page ids must go through
storage.ShardPageID and storage.SplitShardPageID. Encodings that pack
a whole PageID into some other identifier (not slicing the shard tag)
may be suppressed with //lint:ignore pageidpack <why>.`,
	Run: runPageIDPack,
}

func isBitOp(op token.Token) bool {
	switch op {
	case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
		return true
	}
	return false
}

func runPageIDPack(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/storage") || pass.Pkg.Name() == "storage" {
		return nil, nil
	}
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, what string) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, "raw %s on PageID outside internal/storage; use storage.ShardPageID/SplitShardPageID (the MultiPager helpers)", what)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if isBitOp(e.Op) && (derivesFromPageID(pass, e.X) || derivesFromPageID(pass, e.Y)) {
					report(e.Pos(), "shift/mask arithmetic")
				}
			case *ast.CallExpr:
				// Conversion to PageID wrapping bit arithmetic.
				tv, ok := pass.TypesInfo.Types[e.Fun]
				if !ok || !tv.IsType() || namedTypeName(tv.Type) != "PageID" || len(e.Args) != 1 {
					return true
				}
				if containsBitOp(ast.Unparen(e.Args[0])) {
					report(e.Pos(), "packing arithmetic")
				}
			}
			return true
		})
	}
	return nil, nil
}

// derivesFromPageID reports whether e is a PageID-typed expression or
// a chain of conversions/parens rooted at one.
func derivesFromPageID(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.TypesInfo.Types[e]; ok && namedTypeName(tv.Type) == "PageID" {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; !ok || !tv.IsType() {
		return false
	}
	return derivesFromPageID(pass, call.Args[0])
}

// containsBitOp reports whether e contains a shift/mask binary
// expression (without descending into nested calls' arguments being
// irrelevant — any bit op inside the conversion operand counts).
func containsBitOp(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && isBitOp(b.Op) {
			found = true
		}
		return !found
	})
	return found
}
