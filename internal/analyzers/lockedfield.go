package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
)

// LockedField checks Clang-thread-safety-style field annotations: a
// struct field whose comment says "guarded by <mu>" may only be
// accessed in functions that visibly hold that mutex.
//
// Annotate a struct field with a comment containing "guarded by <mu>",
// where <mu> names a sync.Mutex or sync.RWMutex field of the same
// struct:
//
//	type Set struct {
//		pmu    sync.RWMutex
//		staged []delta // guarded by pmu
//	}
//
// Every selector access x.staged is then flagged unless the enclosing
// function also contains x.pmu.Lock(), RLock(), TryLock() or TryRLock()
// on the same base expression x (flow-insensitive within the function:
// anywhere in the body counts, Clang -Wthread-safety style), or the
// function is annotated as requiring the lock from its caller:
//
//	// stageLocked stages ins. flatlint:holds pmu
//	func (s *Set) stageLocked(ins []stagedInsert) { ... }
//
// flatlint:holds <mu> applies to accesses through the method's receiver.
// Constructor code touching a struct that has not escaped yet should
// suppress with //lint:ignore lockedfield <why>.
var LockedField = &Analyzer{
	Name: "lockedfield",
	Run:  runLockedField,
}

var (
	guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)
	holdsRe     = regexp.MustCompile(`flatlint:holds ([A-Za-z_][A-Za-z0-9_]*)`)
)

func runLockedField(pass *Pass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			checkFuncLocks(pass, guarded, decl)
			return false // nested literals handled inside checkFuncLocks
		})
	}
}

// collectGuardedFields maps each annotated field object to the name of
// its guarding mutex, validating that the mutex is a sibling field.
func collectGuardedFields(pass *Pass) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					names[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				mu := annotationOf(field)
				if mu == "" {
					continue
				}
				if !names[mu] {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a field of this struct", mu)
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// annotationOf extracts the guarded-by mutex name from a field's doc
// or trailing comment.
func annotationOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockKey identifies a held mutex: the printed base expression plus
// the mutex field name, e.g. {"sh", "mu"} for sh.mu.Lock().
type lockKey struct {
	base string
	mu   string
}

// checkFuncLocks verifies every guarded-field access in decl (and its
// nested function literals, each as its own scope with its own held
// set — a closure may outlive the lock).
func checkFuncLocks(pass *Pass, guarded map[*types.Var]string, decl *ast.FuncDecl) {
	recvName := ""
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		recvName = decl.Recv.List[0].Names[0].Name
	}
	held := map[lockKey]bool{}
	if decl.Doc != nil && recvName != "" {
		for _, m := range holdsRe.FindAllStringSubmatch(decl.Doc.Text(), -1) {
			held[lockKey{recvName, m[1]}] = true
		}
	}
	checkScope(pass, guarded, decl.Body, held)
}

// checkScope analyzes one function body: gathers the locks it visibly
// acquires, then flags guarded accesses outside them. Nested literals
// recurse with a fresh held set.
func checkScope(pass *Pass, guarded map[*types.Var]string, body *ast.BlockStmt, held map[lockKey]bool) {
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
		default:
			return true
		}
		if muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			held[lockKey{types.ExprString(muSel.X), muSel.Sel.Name}] = true
		}
		return true
	})
	walkShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fieldObj, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, ok := guarded[fieldObj]
		if !ok {
			return true
		}
		base := types.ExprString(ast.Unparen(sel.X))
		if !held[lockKey{base, mu}] {
			pass.Reportf(sel.Pos(), "%s is guarded by %s, but the function never locks %s.%s (annotate with flatlint:holds %s if the caller holds it)",
				types.ExprString(sel), mu, base, mu, mu)
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkScope(pass, guarded, lit.Body, map[lockKey]bool{})
			return false
		}
		return true
	})
}
