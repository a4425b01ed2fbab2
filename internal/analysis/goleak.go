package analysis

import (
	"go/ast"
	"go/token"
)

// GoLeak requires every `go` statement to have a provable join path, so a
// goroutine launched on a hot path cannot outlive the operation that
// started it. A launch is accepted when one of these holds:
//
//   - WaitGroup pairing: a call x.<wg>.Add(...) textually precedes the go
//     statement in the same function body, and the goroutine body (a func
//     literal, or the body of a same-package named function the statement
//     calls) contains a matching <wg>.Done(). Matching is by the final
//     field name (wg, workers, ...), not the resolved struct type — the
//     suite has no type information, and distinct WaitGroups in one
//     function body would alias only if they also share a field name.
//     The pairing additionally requires some function of the same
//     package to call <wg>.Wait() — an Add/Done pair nobody waits on
//     joins nothing, and a WaitGroup is joined by the package that owns
//     it.
//   - channel join: the goroutine body sends on or closes a channel
//     identifier that the launching function also receives from
//     (including inside a select case). The receive may precede the go
//     statement textually (loop-shaped joins); what matters is that the
//     launcher observably consumes the goroutine's completion signal.
//   - //dbtf:detached <reason> on the go statement — the goroutine is
//     intentionally unjoined (a process-lifetime server loop, say), and
//     the reason makes the decision auditable.
//
// The analyzer is syntactic: it proves the join signal exists, not that
// every control path reaches it.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "every go statement needs a WaitGroup pairing waited on in its package, a joined channel, or //dbtf:detached <reason>",
	Run:  runGoLeak,
}

const detachedName = "detached"

func runGoLeak(pass *Pass) error {
	// Wait() calls count wherever in the package they are — inside func
	// literals and functions that launch nothing — because the join may
	// live far from the launch (Shutdown waits for Serve's goroutines).
	waited := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := waitGroupCallName(call, "Wait"); name != "" {
					waited[name] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		decls := namedFuncs(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGoLeakFunc(pass, fn, decls, waited)
		}
	}
	return nil
}

// namedFuncs indexes a file's function declarations by name so `go
// s.runJob(...)` can be resolved to the body that holds the Done.
func namedFuncs(f *ast.File) map[string]*ast.FuncDecl {
	m := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
			m[fn.Name.Name] = fn
		}
	}
	return m
}

func checkGoLeakFunc(pass *Pass, fn *ast.FuncDecl, decls map[string]*ast.FuncDecl, waited map[string]bool) {
	adds := collectWaitGroupCalls(fn.Body, "Add")
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := goroutineBody(g, decls)
		switch {
		case wgJoined(pass, adds, g, body, waited):
		case chanJoined(fn.Body, body):
		case pass.Allowed(g.Pos(), detachedName):
		default:
			pass.Reportf(g.Pos(), "goroutine has no provable join: pair it with a WaitGroup Add/Done, receive its completion on a channel, or annotate %s%s <reason>", DirectivePrefix, detachedName)
		}
		return true
	})
}

// goroutineBody returns the statements the go statement runs: the func
// literal's body, or the body of a same-file named function (go fn(...)
// or go x.method(...)). Nil when the callee is out of reach (another
// package, a stored closure), which forces an explicit join or directive.
func goroutineBody(g *ast.GoStmt, decls map[string]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn := decls[fun.Name]; fn != nil {
			return fn.Body
		}
	case *ast.SelectorExpr:
		if fn := decls[fun.Sel.Name]; fn != nil {
			return fn.Body
		}
	}
	return nil
}

// waitGroupCallName matches a call x.<field>.<method>() or
// <ident>.<method>() and returns the WaitGroup's final name, or "".
func waitGroupCallName(call *ast.CallExpr, method string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return ""
	}
	switch recv := sel.X.(type) {
	case *ast.Ident:
		return recv.Name
	case *ast.SelectorExpr:
		return recv.Sel.Name
	}
	return ""
}

// collectWaitGroupCalls finds every call of the given method shape inside
// body, keyed by final receiver name.
func collectWaitGroupCalls(body *ast.BlockStmt, method string) []lockCall {
	var out []lockCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := waitGroupCallName(call, method); name != "" {
			out = append(out, lockCall{ident: name, pos: call.Pos()})
		}
		return true
	})
	return out
}

// wgJoined reports whether the go statement is justified by an Add before
// it and a matching Done inside the goroutine body. A pairing whose
// WaitGroup the package never Waits on still answers true — the launch is
// paired — and is reported at its Add site instead.
func wgJoined(pass *Pass, adds []lockCall, g *ast.GoStmt, body *ast.BlockStmt, waited map[string]bool) bool {
	if body == nil {
		return false
	}
	dones := collectWaitGroupCalls(body, "Done")
	for _, add := range adds {
		if add.pos >= g.Pos() {
			continue
		}
		for _, done := range dones {
			if done.ident != add.ident {
				continue
			}
			if !waited[add.ident] {
				pass.Reportf(add.pos, "WaitGroup %q has Add/Done pairs but no Wait in this package; the goroutines it tracks are never joined", add.ident)
			}
			return true
		}
	}
	return false
}

// chanJoined reports whether the goroutine body signals completion on a
// channel identifier the launching function receives from.
func chanJoined(launcher, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	signals := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if id, ok := n.Chan.(*ast.Ident); ok {
				signals[id.Name] = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if ch, ok := n.Args[0].(*ast.Ident); ok {
					signals[ch.Name] = true
				}
			}
		}
		return true
	})
	if len(signals) == 0 {
		return false
	}
	joined := false
	ast.Inspect(launcher, func(n ast.Node) bool {
		if joined {
			return false
		}
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return true
		}
		if id, ok := un.X.(*ast.Ident); ok && signals[id.Name] {
			joined = true
		}
		return true
	})
	return joined
}
