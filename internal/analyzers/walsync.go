package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"flat/internal/analysis"
)

// WalSync enforces the durability ordering of the commit paths: a file
// renamed into place (the manifest swap, the WAL rotation) must have
// been fsynced first, or the commit can reference data the OS never
// wrote.
var WalSync = &analysis.Analyzer{
	Name: "walsync",
	Doc: `os.Rename on a commit path must be preceded by a Sync call

Atomic-rename commits (write scratch file, fsync, rename into place)
are only crash-safe with the fsync: without it the rename can become
durable before the renamed file's contents, and a crash leaves the
manifest or write-ahead log referencing garbage. This check flags any

	os.Rename(src, dst)

call that is not lexically preceded, in the same function scope, by a
call to a Sync method or function (f.Sync(), w.Sync(), syncDir(...)).
Closures are separate scopes: a rename inside a function literal needs
its sync inside that literal.

The check is lexical (flow-insensitive) and deliberately coarse — any
earlier Sync call in the scope satisfies it, whether or not it synced
the renamed file. It catches the ordering mistake that matters (no
sync anywhere before the commit), not aliasing games. Fix by syncing
the scratch file before renaming it; suppress
(//lint:ignore walsync <why>) for renames that are provably not
commit points (temp-file shuffles, test scaffolding).`,
	Run: runWalSync,
}

func runWalSync(pass *analysis.Pass) (any, error) {
	funcScope(pass, func(_ *ast.FuncType, _ *ast.FieldList, _ *ast.CommentGroup, body *ast.BlockStmt) {
		var syncs []token.Pos
		walkShallow(body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isSyncCall(call) {
				syncs = append(syncs, call.Pos())
				return true
			}
			if !isOsRename(pass.TypesInfo, call) {
				return true
			}
			for _, s := range syncs {
				if s < call.Pos() {
					return true
				}
			}
			pass.Reportf(call.Pos(), "os.Rename without a preceding Sync call in this scope; an atomic-rename commit must fsync the file it renames into place")
			return true
		})
	})
	return nil, nil
}

// isOsRename reports whether call is os.Rename.
func isOsRename(info *types.Info, call *ast.CallExpr) bool {
	pkg, name := pkgFunc(info, call)
	return pkg == "os" && name == "Rename"
}

// isSyncCall reports whether call invokes something named Sync (a
// file's Sync method, a sync helper) or a helper whose name starts
// with "sync" (syncDir).
func isSyncCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return false
	}
	if name == "Sync" {
		return true
	}
	return len(name) > 4 && name[:4] == "sync" && name[4] >= 'A' && name[4] <= 'Z'
}
