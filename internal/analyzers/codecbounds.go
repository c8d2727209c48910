package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flat/internal/analysis"
)

// CodecBounds confines raw page-buffer slicing to internal/storage.
// Page format v2 made the object-page layout a storage-layer secret: a
// buffer returned by a pool or pager read may hold v1 elements, v2
// quantized cells, metadata records or the superblock, and only the
// codec in internal/storage knows which bytes mean what. Every other
// layer must hand the whole buffer to the codec (NewPageReader,
// DecodeObjectPageInto, ObjectPageCount, core.OpenFrom's
// superblock reader) instead of indexing into it.
var CodecBounds = &analysis.Analyzer{
	Name: "codecbounds",
	Doc: `no raw indexing or slicing of page buffers outside internal/storage

Flags, outside the storage package, an index expression buf[i] or slice
expression buf[a:b] whose operand is a local variable holding a page
buffer — one assigned from a pool/pager read (a method named ReadInto
or ReadPage whose first argument is a PageID).

Page layouts (v1 vs v2 object pages, metadata pages, the superblock)
are storage-layer encoding details; decode through the storage codec
(PageReader, DecodeObjectPageInto, the ObjectPage* helpers) so the layout
can evolve in exactly one place. The check is function-local: a buffer
laundered through another variable or a field escapes it, so keep page
buffers in the locals they were read into.

Code that must touch raw bytes (checksumming, hex dumps, corruption
tests in non-test tooling) may be suppressed with
//lint:ignore codecbounds <why>.`,
	Run: runCodecBounds,
}

func runCodecBounds(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/storage") || pass.Pkg.Name() == "storage" {
		return nil, nil
	}
	funcScope(pass, func(_ *ast.FuncType, _ *ast.FieldList, _ *ast.CommentGroup, body *ast.BlockStmt) {
		// Pass 1: collect the function's page-buffer variables.
		buffers := map[types.Object]bool{}
		walkShallow(body, func(n ast.Node) bool {
			// buf, err := pool.ReadInto(id, st) / pager.ReadPage(id) —
			// the first LHS is the page buffer.
			if s, ok := n.(*ast.AssignStmt); ok && len(s.Rhs) == 1 && len(s.Lhs) >= 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isPageBufferSource(pass.TypesInfo, call) {
					if obj := lhsObject(pass.TypesInfo, s.Lhs[0]); obj != nil {
						buffers[obj] = true
					}
				}
			}
			return true
		})
		if len(buffers) == 0 {
			return
		}
		// Pass 2: flag direct indexing and slicing of those variables.
		reported := map[token.Pos]bool{}
		walkShallow(body, func(n ast.Node) bool {
			var x ast.Expr
			var what string
			switch e := n.(type) {
			case *ast.IndexExpr:
				x, what = e.X, "indexing"
			case *ast.SliceExpr:
				x, what = e.X, "slicing"
			default:
				return true
			}
			id, ok := ast.Unparen(x).(*ast.Ident)
			if !ok || !buffers[pass.TypesInfo.Uses[id]] {
				return true
			}
			if !reported[n.Pos()] {
				reported[n.Pos()] = true
				pass.Reportf(n.Pos(), "raw page-buffer %s outside internal/storage; decode through the storage codec (PageReader/DecodeObjectPageInto/ObjectPage* helpers)", what)
			}
			return true
		})
	})
	return nil, nil
}

// isPageBufferSource reports whether call returns raw page bytes: a
// method named ReadInto or ReadPage whose first argument is a PageID.
// Matching the argument type rather than the receiver keeps the check
// honest across the Pool interface, ConcurrentPool, every Pager, and
// the testdata fixtures (the same trick isPagerRead uses).
func isPageBufferSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	switch sel.Sel.Name {
	case "ReadInto", "ReadPage":
	default:
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return namedTypeName(tv.Type) == "PageID"
}

// lhsObject resolves the object an assignment's left-hand side binds:
// Defs for := declarations, Uses for plain assignment.
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
