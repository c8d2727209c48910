package analyzers

import (
	"go/ast"
	"go/types"

	"flat/internal/analysis"
)

// CtxCrawl enforces the Query API v2 cancellation contract: any loop
// that performs pager reads must consult its context between
// iterations, so a deadline or client disconnect can stop a crawl
// between page reads rather than after the whole traversal.
var CtxCrawl = &analysis.Analyzer{
	Name: "ctxcrawl",
	Doc: `loops performing pager reads must consult ctx between iterations

A for/range loop whose body performs a page read (ReadInto or
ReadPage taking a PageID) is a crawl: its iteration count is data-
dependent and each iteration costs a page read, so it must give
cancellation a chance between reads. The read may be direct, or one
call deep through a same-package function or method whose own body
reads pages — the shape of a best-first traversal, where the frontier
pop loop resolves its work items through helpers (readPage, expand,
...) rather than calling the pager itself. The loop body satisfies the
check by calling ctx.Err() or receiving from ctx.Done() (directly or
in a select), or by passing a context into any call — delegating the
check to a callee such as core's ctxErr helper.

Nested loops are checked independently: an outer loop consulting ctx
does not excuse an inner page-read loop that never does.

Fix by threading a context through the function and checking it at the
top of the loop; suppress (//lint:ignore ctxcrawl <why>) only for code
that is never on a serving query path.`,
	Run: runCtxCrawl,
}

func runCtxCrawl(pass *analysis.Pass) (any, error) {
	readers := directReaders(pass)
	funcScope(pass, func(_ *ast.FuncType, _ *ast.FieldList, _ *ast.CommentGroup, body *ast.BlockStmt) {
		walkShallow(body, func(n ast.Node) bool {
			var loopBody *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				loopBody = l.Body
			case *ast.RangeStmt:
				loopBody = l.Body
			default:
				return true
			}
			checkLoop(pass, n, loopBody, readers)
			return true
		})
	})
	return nil, nil
}

// directReaders collects every function and method declared in the
// pass whose body directly performs a pager read. A loop calling one
// of these is a crawl even though the pager never appears in the loop
// body itself — the priority-frontier shape, where popped work items
// are resolved through read helpers. One level only: a helper that
// reads through a second helper does not taint its callers (the second
// helper's own loops are still checked).
func directReaders(pass *analysis.Pass) map[types.Object]bool {
	readers := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPagerRead(pass.TypesInfo, call) {
					readers[obj] = true
					return false
				}
				return true
			})
		}
	}
	return readers
}

// callee resolves a call expression to the function or method object
// it invokes, when that is a plain identifier or selector (interface
// and type-parameter calls resolve to their declared method objects,
// which is exactly what the reader set is keyed by for same-package
// declarations).
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// checkLoop inspects one loop body — excluding nested loops and
// function literals, which are their own scopes — for pager reads and
// context consultation.
func checkLoop(pass *analysis.Pass, loop ast.Node, body *ast.BlockStmt, readers map[types.Object]bool) {
	reads := false
	consults := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch inner := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			// <-ctx.Done(), in or out of a select, lands here via the
			// Done() call itself.
			if isPagerRead(pass.TypesInfo, inner) {
				reads = true
			}
			if obj := callee(pass.TypesInfo, inner); obj != nil && readers[obj] {
				reads = true
			}
			if consultsContext(pass, inner) {
				consults = true
			}
		}
		return true
	})
	if reads && !consults {
		pass.Reportf(loop.Pos(), "loop performs pager reads but never consults a context; check ctx.Err()/ctx.Done() (or pass ctx to the read path) between page reads")
	}
}

// consultsContext reports whether call checks a context: ctx.Err(),
// ctx.Done(), or any call receiving a context argument (delegation).
func consultsContext(pass *analysis.Pass, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isContext(tv.Type) {
				return true
			}
		}
	}
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isContext(tv.Type) {
			return true
		}
	}
	return false
}
