package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// CtxFlow enforces cancellation flow: a function that accepts a
// context.Context promises its caller it can be cancelled, so any
// operation in its body that can block indefinitely must either select
// on the context's Done channel or carry an explicit
// //dbtf:blocking <reason> annotation.
//
// Blocking operations recognized (syntactically):
//
//   - a bare channel receive or send used as a statement, assignment
//     source, or return value outside any select (receives buried in
//     larger expressions are beyond the syntactic net);
//   - a select statement with neither a `default` clause nor a
//     `<-ctx.Done()` case (every arm can block, and none observes
//     cancellation);
//   - time.Sleep(...);
//   - net.Dial / net.DialTimeout / net.Listen (use a ctx-aware dialer).
//
// Func literal bodies are excluded from the enclosing function's scan: a
// goroutine's blocking does not block the cancellable caller (goleak
// owns goroutine lifetime). A literal that itself takes a context is
// checked in its own right. Receives on buffered channels and
// known-closed channels cannot be distinguished without types — if a
// bare receive provably cannot block, say why in the annotation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "blocking operations in context-taking functions must select on ctx.Done() or carry //dbtf:blocking <reason>",
	Run:  runCtxFlow,
}

const blockingName = "blocking"

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		imports := fileImports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxFuncs(pass, imports, fn.Type, fn.Body)
		}
	}
	return nil
}

// checkCtxFuncs checks one function body if its type takes a context, and
// recurses into func literals so nested ctx-taking closures are checked
// against their own parameter.
func checkCtxFuncs(pass *Pass, imports map[string]string, ft *ast.FuncType, body *ast.BlockStmt) {
	if ctx := ctxParamName(imports, ft); ctx != "" {
		checkCtxBody(pass, imports, ctx, body)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkCtxFuncs(pass, imports, lit.Type, lit.Body)
			return false
		}
		return true
	})
}

// ctxParamName returns the name of the function's context.Context
// parameter, "_" if it is declared but unusable (then nothing can select
// on it and every blocking op is a finding), or "" when there is none.
func ctxParamName(imports map[string]string, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || imports[base.Name] != "context" {
			continue
		}
		if len(field.Names) == 0 {
			return "_"
		}
		return field.Names[0].Name
	}
	return ""
}

// checkCtxBody scans one cancellable function body, skipping nested func
// literals (their blocking belongs to their own goroutine/closure).
func checkCtxBody(pass *Pass, imports map[string]string, ctx string, body *ast.BlockStmt) {
	inSelect := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			done := false
			hasDefault := false
			for _, clause := range n.Body.List {
				comm := clause.(*ast.CommClause)
				if comm.Comm == nil {
					hasDefault = true
					continue
				}
				inSelect[comm.Comm] = true
				if commReceivesDone(comm.Comm, ctx) {
					done = true
				}
			}
			if !done && !hasDefault && !pass.Allowed(n.Pos(), blockingName) {
				pass.Reportf(n.Pos(), "select in a context-taking function has no <-%s.Done() case and no default; add one or annotate %s%s <reason>", ctxName(ctx), DirectivePrefix, blockingName)
			}
			return true
		case *ast.SendStmt:
			if inSelect[ast.Node(n)] {
				return true
			}
			if !pass.Allowed(n.Pos(), blockingName) {
				pass.Reportf(n.Pos(), "bare channel send in a context-taking function can block past cancellation; wrap it in a select with <-%s.Done() or annotate %s%s <reason>", ctxName(ctx), DirectivePrefix, blockingName)
			}
		case *ast.ExprStmt:
			if bareReceive(n.X) != nil && !inSelect[ast.Node(n)] {
				reportBareReceive(pass, ctx, n)
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if bareReceive(rhs) != nil && !inSelect[ast.Node(n)] {
					reportBareReceive(pass, ctx, n)
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if bareReceive(res) != nil {
					reportBareReceive(pass, ctx, n)
					return false
				}
			}
		case *ast.CallExpr:
			if pkgCallIs(imports, n, "time", "Sleep") {
				if !pass.Allowed(n.Pos(), blockingName) {
					pass.Reportf(n.Pos(), "time.Sleep in a context-taking function ignores cancellation; select on time.After and <-%s.Done(), or annotate %s%s <reason>", ctxName(ctx), DirectivePrefix, blockingName)
				}
			}
			if pkgCallIs(imports, n, "net", "Dial") || pkgCallIs(imports, n, "net", "DialTimeout") || pkgCallIs(imports, n, "net", "Listen") {
				if !pass.Allowed(n.Pos(), blockingName) {
					pass.Reportf(n.Pos(), "net dial/listen in a context-taking function should go through a ctx-aware dialer (net.Dialer.DialContext); annotate %s%s <reason> if the blocking is bounded", DirectivePrefix, blockingName)
				}
			}
		}
		return true
	})
}

// ctxName renders the context parameter for messages; an unnamed (_)
// context still identifies the problem.
func ctxName(ctx string) string {
	if ctx == "_" {
		return "ctx"
	}
	return ctx
}

func reportBareReceive(pass *Pass, ctx string, stmt ast.Stmt) {
	if pass.Allowed(stmt.Pos(), blockingName) {
		return
	}
	pass.Reportf(stmt.Pos(), "bare channel receive in a context-taking function can block past cancellation; select on it together with <-%s.Done() or annotate %s%s <reason>", ctxName(ctx), DirectivePrefix, blockingName)
}

// bareReceive returns the receive expression if e is <-ch (possibly
// parenthesized), else nil.
func bareReceive(e ast.Expr) *ast.UnaryExpr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
		return un
	}
	return nil
}

// commReceivesDone reports whether a select comm clause receives from
// <ctx>.Done() (or any .Done() when the context parameter is unnamed —
// it cannot be the parameter's, but a derived context stored earlier is
// beyond syntactic reach, so the check stays on the conservative side of
// noisy).
func commReceivesDone(comm ast.Stmt, ctx string) bool {
	matches := func(e ast.Expr) bool {
		un, ok := e.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return false
		}
		call, ok := un.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return false
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		return ctx == "_" || base.Name == ctx || strings.Contains(base.Name, "ctx") || strings.Contains(base.Name, "Ctx")
	}
	switch s := comm.(type) {
	case *ast.ExprStmt:
		return matches(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if matches(rhs) {
				return true
			}
		}
	}
	return false
}

// pkgCallIs reports whether call is <pkg>.<fn>(...) for the import path
// pkg (matched through the file's import table).
func pkgCallIs(imports map[string]string, call *ast.CallExpr, pkg, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return imports[base.Name] == pkg
}
