package analysis

import (
	"go/ast"
	"go/token"
)

// ErrCheck enforces error hygiene on the durable write path: the
// crash-safety argument of internal/durable (temp file → fsync → rename →
// dir fsync) is void if any step's error is dropped, so discarding the result
// of a Close/Sync/Rename/Remove call is a diagnostic in the scoped
// packages. Both statement-position calls (`f.Close()`) and explicit
// blank assignments (`_ = f.Close()`) are flagged; best-effort cleanup on
// already-failing paths carries //dbtf:allow-unchecked <reason>. Deferred
// calls are exempt — `defer f.Close()` on a read-only file is the
// idiomatic read path and returns nothing to act on.
//
// The check is name-based (no type information): any method or function
// named Close, Sync, Rename, or Remove in the scoped packages is treated
// as error-returning, which holds for the os-level calls these packages
// make.
var ErrCheck = &Analyzer{
	Name:  "errcheck",
	Doc:   "flags discarded errors from Close/Sync/Rename/Remove on the durable write path",
	Scope: []string{"internal/core", "internal/boolmat", "internal/serve", "internal/durable"},
	Run:   runErrCheck,
}

const allowUnchecked = "allow-unchecked"

// durableCalls are the operation names whose errors the durable write
// path must not drop.
var durableCalls = map[string]bool{
	"Close": true, "Sync": true, "Rename": true, "Remove": true,
}

func runErrCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // deferred close on read paths is idiomatic
			case *ast.ExprStmt:
				if name, ok := durableCallName(n.X); ok {
					reportUnchecked(pass, n.Pos(), name)
				}
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) {
					return true
				}
				for _, rhs := range n.Rhs {
					if name, ok := durableCallName(rhs); ok {
						reportUnchecked(pass, n.Pos(), name)
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportUnchecked(pass *Pass, pos token.Pos, name string) {
	if pass.Allowed(pos, allowUnchecked) {
		return
	}
	pass.Reportf(pos, "result of %s is discarded on the durable write path; check it or annotate %s%s <reason>",
		name, DirectivePrefix, allowUnchecked)
}

// durableCallName returns the method/function name of a call whose error
// the write path must check.
func durableCallName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if durableCalls[fun.Sel.Name] {
			return fun.Sel.Name, true
		}
	case *ast.Ident:
		if durableCalls[fun.Name] {
			return fun.Name, true
		}
	}
	return "", false
}

func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
