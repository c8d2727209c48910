// Package analyzers holds FLAT's repo-specific static-analysis passes:
// machine checks for the concurrency and query-contract conventions the
// engine's correctness rests on. Each of the three bugs PR 5 fixed was
// a violation of a rule that existed only in prose; these analyzers
// turn those rules into CI failures.
//
// A rule the code can make inexpressible needs no pass: shard.Set's
// query helper (Set.query, which holds the generation a query reads)
// and the admission budget take a closure and release in a defer of the
// same function (shard/delta.go, serve/admission.go), so "every acquire
// is released on every return path" holds by construction and has no
// checker here.
//
// The seven that remain: name, justified suppressions in non-test code
// today, what the pass checks in this module today, and what earns it
// its place (the diff it flagged, per CHANGES.md, or the invariant no
// test can hold):
//
//	codecbounds 0  13 page-read call sites (core, rtree)        page layouts (v1/v2, PR 7) are decoded only in storage; a test sees only the formats it builds
//	ctxcrawl    5  every page-read loop (core, rtree)          PR 6: forced ctx checks into core's seed slot loop and overflow-chain walk (2 more in benchmark/)
//	lockedfield 0  5 annotated fields (shard.Set)              "guarded by mu" holds on every access; -race sees only the interleavings a test runs
//	pageidpack  2  RecordRef's whole-PageID packing (core)     PageID shard-tag arithmetic stays in storage; a stray shift is wrong at K > 1 only
//	reflectsort 0  the 8 engine packages                       PR 19: sort.SliceStable was 80 % of build CPU; no timing test can gate that on 2 vCPUs
//	statsonerr  0  18 (…QueryStats, error) functions           stats cover the work performed on every error return; flagged no real diff yet (ROADMAP 1a extends it)
//	walsync     0  the manifest swap (shard.commit)            fsync precedes the publishing rename (PR 8); wrong only across a power loss
//
// All seven stay: each still checks live code. Lint (lint.go) runs
// them; Load (load.go) type-checks from source only the packages it
// lints and reads every import from the compiler's export data. The
// // want harness is a _test.go helper (fixture_test.go), and
// cmd/flatlint runs every pass over a package pattern.
//
// A finding is suppressed, staticcheck-style, with a justified
// directive on the flagged line or the line above it:
//
//	//lint:ignore ctxcrawl baseline measurement code, never on a serving path
//
// The justification is mandatory: a bare directive does not suppress.
//
// Non-test files only: the analyzers model the shipping code's
// invariants, and test files legitimately violate several of them
// (poking at locked state, indexing raw page bytes).
package analyzers

import (
	"go/ast"
	"go/types"
)

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CodecBounds,
		CtxCrawl,
		LockedField,
		PageIDPack,
		ReflectSort,
		StatsOnErr,
		WalSync,
	}
}

// namedTypeName returns the name of t's named type, unwrapping
// pointers and aliases; "" when t has none.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isContext reports whether t is context.Context (possibly behind an
// alias).
func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// pkgFunc resolves a call of the form pkg.Name(...) to the imported
// package's path and the function's name, going through the type info
// rather than the identifier spelling; "", "" for any other call.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pkg.Imported().Path(), sel.Sel.Name
}

// isPagerRead reports whether call is a direct page read: a method
// named ReadInto or ReadPage whose first argument is a PageID.
// Matching the argument type rather than the receiver keeps the check
// honest across the Pool interface, ConcurrentPool, every Pager
// implementation, and the testdata fixtures.
func isPagerRead(info *types.Info, call *ast.CallExpr) bool {
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

// funcScope walks every function body in the pass — declarations and
// function literals alike — calling fn once per function with its type
// and body. Nested literals are visited as their own scopes.
func funcScope(pass *Pass, fn func(ftyp *ast.FuncType, recv *ast.FieldList, doc *ast.CommentGroup, body *ast.BlockStmt)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Type, d.Recv, d.Doc, d.Body)
				}
			case *ast.FuncLit:
				fn(d.Type, nil, nil, d.Body)
			}
			return true
		})
	}
}

// walkShallow traverses the statements and expressions of body without
// descending into nested function literals, which are separate scopes
// for every analyzer in this suite.
func walkShallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
