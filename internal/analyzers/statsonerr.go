package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StatsOnErr enforces the "stats cover exactly the work performed"
// contract on error paths: a function that returns QueryStats next to
// an error may not throw away partial stats when it fails after doing
// work. All three of PR 5's scatter/merge fixes were instances of this
// rule.
//
// In a function whose results include a QueryStats and a trailing error,
// a return statement of the shape
//
//	return ..., QueryStats{}, err
//
// (zero-valued stats literal next to a non-nil error expression) is
// flagged when any stats-producing work — a call returning QueryStats, or
// a direct pager read — appears earlier in the function. Scatter/merge
// paths must merge the partial stats they accumulated before failing;
// early validation returns before any work are fine.
//
// The check is lexical (flow-insensitive): "earlier" means textually
// before the return, which matches how these functions are written. Fix
// by returning the accumulated/merged stats value; suppress
// (//lint:ignore statsonerr <why>) if a path provably performed no work.
var StatsOnErr = &Analyzer{
	Name: "statsonerr",
	Run:  runStatsOnErr,
}

func runStatsOnErr(pass *Pass) {
	funcScope(pass, func(ftyp *ast.FuncType, _ *ast.FieldList, _ *ast.CommentGroup, body *ast.BlockStmt) {
		statsIdx, errIdx, n := statsErrResults(pass.TypesInfo, ftyp)
		if statsIdx < 0 {
			return
		}
		workBefore := collectWorkPositions(pass, body)
		walkShallow(body, func(node ast.Node) bool {
			ret, ok := node.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != n {
				return true
			}
			if !isZeroStatsLiteral(pass.TypesInfo, ret.Results[statsIdx]) {
				return true
			}
			if isNilIdent(ret.Results[errIdx]) {
				return true
			}
			if !workBefore(ret.Pos()) {
				return true
			}
			pass.Reportf(ret.Pos(), "returns zero QueryStats alongside a non-nil error after stats-producing work; merge the partial stats (\"stats cover exactly the work performed\")")
			return true
		})
	})
}

// statsErrResults locates a QueryStats result and a trailing error
// result in ftyp; statsIdx is -1 when the signature does not match.
// n is the flattened result count.
func statsErrResults(info *types.Info, ftyp *ast.FuncType) (statsIdx, errIdx, n int) {
	statsIdx, errIdx = -1, -1
	if ftyp.Results == nil {
		return
	}
	for _, field := range ftyp.Results.List {
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		tv, ok := info.Types[field.Type]
		for i := 0; i < width; i++ {
			if ok {
				if namedTypeName(tv.Type) == "QueryStats" && statsIdx < 0 {
					statsIdx = n
				}
				if types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
					errIdx = n
				}
			}
			n++
		}
	}
	if errIdx != n-1 { // error must be the trailing result
		statsIdx = -1
	}
	return
}

// collectWorkPositions returns a predicate reporting whether any
// stats-producing call appears lexically before pos. Function literals
// are included deliberately: scatter work is performed inside
// closures handed to worker helpers.
func collectWorkPositions(pass *Pass, body *ast.BlockStmt) func(token.Pos) bool {
	var work []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPagerRead(pass.TypesInfo, call) || producesStats(pass.TypesInfo, call) {
			work = append(work, call.Pos())
		}
		return true
	})
	return func(pos token.Pos) bool {
		for _, w := range work {
			if w < pos {
				return true
			}
		}
		return false
	}
}

// producesStats reports whether call's results include a QueryStats.
func producesStats(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.IsType() {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if namedTypeName(t.At(i).Type()) == "QueryStats" {
				return true
			}
		}
	default:
		return namedTypeName(t) == "QueryStats"
	}
	return false
}

// isZeroStatsLiteral reports whether e is an empty composite literal
// of a QueryStats type (QueryStats{} or pkg.QueryStats{}).
func isZeroStatsLiteral(info *types.Info, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	tv, ok := info.Types[lit]
	return ok && namedTypeName(tv.Type) == "QueryStats"
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
