package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// GuardedBy enforces //dbtf:guardedby field annotations: a struct field
// annotated
//
//	//dbtf:guardedby mu
//
// (where mu is a sibling mutex field) may only be read or written where
// the analyzer can see the named mutex held. An access through identifier
// x to an annotated field is accepted when one of these holds:
//
//   - a call x.mu.Lock() (or RLock) precedes the access in the same
//     function body — the analyzer checks textual precedence, not
//     dominance, which is exact for this codebase's lock-at-the-top style;
//   - the enclosing function's name ends in "Locked", the package's
//     convention for "caller holds the receiver's mutex";
//   - the access is the construction of a not-yet-shared value: field
//     values inside composite literals are not selector accesses and are
//     never flagged;
//   - the field's address is passed to a method on the same receiver
//     (x.m(&x.field, ...)): the mutation happens inside the annotated
//     type's own implementation, where this analyzer checks it;
//   - the statement or enclosing function carries
//     //dbtf:allow-unguarded [<ident>:] <reason> — the function-level form
//     optionally names the receiver identifier it vouches for, so a
//     function that legitimately owns one unshared value (a joined stage's
//     accounting, say) does not silence checks on other receivers.
//
// The analyzer resolves identifier-to-struct bindings syntactically from
// receivers, parameters, and locals declared or composite-constructed with
// an explicit type; accesses through other paths are not checked.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "enforces //dbtf:guardedby mutex annotations on struct fields",
	Run:  runGuardedBy,
}

const (
	guardedByName  = "guardedby"
	allowUnguarded = "allow-unguarded"
)

// guardedStruct records one struct's annotated fields: field name → the
// sibling mutex field guarding it.
type guardedStruct struct {
	fields map[string]string
	all    map[string]bool // every field name, to validate mutex references
}

func runGuardedBy(pass *Pass) error {
	structs := collectGuardedStructs(pass)
	if len(structs) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGuardedFunc(pass, structs, fn)
		}
	}
	return nil
}

// collectGuardedStructs finds every struct with //dbtf:guardedby field
// annotations and validates that each named mutex is a sibling field.
func collectGuardedStructs(pass *Pass) map[string]*guardedStruct {
	structs := map[string]*guardedStruct{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			gs := &guardedStruct{fields: map[string]string{}, all: map[string]bool{}}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					gs.all[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				mu := fieldGuard(pass, field)
				if mu == "" {
					continue
				}
				if !gs.all[mu] {
					pass.Reportf(field.Pos(), "%s%s %s names no field of struct %s",
						DirectivePrefix, guardedByName, mu, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					gs.fields[name.Name] = mu
				}
			}
			if len(gs.fields) > 0 {
				structs[ts.Name.Name] = gs
			}
			return true
		})
	}
	return structs
}

// fieldGuard returns the mutex named by a field's //dbtf:guardedby
// annotation (in its doc or trailing comment), or "".
func fieldGuard(pass *Pass, field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		for _, d := range docDirectives(cg) {
			if d.name == guardedByName {
				if d.arg == "" {
					pass.Reportf(field.Pos(), "%s%s requires a mutex field name", DirectivePrefix, guardedByName)
					return ""
				}
				return d.arg
			}
		}
	}
	return ""
}

// funcAllowances returns the receiver identifiers a function's doc-level
// //dbtf:allow-unguarded annotations vouch for ("" vouches for all).
func funcAllowances(pass *Pass, fn *ast.FuncDecl) map[string]bool {
	allowed := map[string]bool{}
	for _, d := range docDirectives(fn.Doc) {
		if d.name != allowUnguarded {
			continue
		}
		scope, reason, hasScope := strings.Cut(d.arg, ":")
		if !hasScope {
			scope, reason = "", d.arg
		}
		if strings.TrimSpace(reason) == "" {
			pass.Reportf(d.pos, "%s%s requires a reason", DirectivePrefix, allowUnguarded)
			continue
		}
		allowed[strings.TrimSpace(scope)] = true
	}
	return allowed
}

// checkGuardedFunc verifies every annotated-field access in one function.
func checkGuardedFunc(pass *Pass, structs map[string]*guardedStruct, fn *ast.FuncDecl) {
	bindings := collectBindings(structs, fn)
	if len(bindings) == 0 {
		return
	}
	allowed := funcAllowances(pass, fn)
	lockedSuffix := strings.HasSuffix(fn.Name.Name, "Locked")
	locks := collectLockCalls(bindings, structs, fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		structName, bound := bindings[id.Name]
		if !bound {
			return true
		}
		mu, guarded := structs[structName].fields[sel.Sel.Name]
		if !guarded {
			return true
		}
		switch {
		case lockedSuffix, allowed[""], allowed[id.Name]:
		case lockHeldBefore(locks, id.Name, mu, sel.Pos()):
		case addressPassedToOwnMethod(fn, sel, id.Name):
		case pass.Allowed(sel.Pos(), allowUnguarded):
		default:
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %s.%s, which is not visibly held here (lock it first, suffix the function with Locked, or annotate %s%s <reason>)",
				id.Name, sel.Sel.Name, id.Name, mu, DirectivePrefix, allowUnguarded)
		}
		return true
	})
}

// collectBindings maps identifier names to guarded struct types, resolved
// from the receiver, parameters, and locals with syntactically evident
// types (`var x T`, `x := T{...}`, `x := &T{...}`).
func collectBindings(structs map[string]*guardedStruct, fn *ast.FuncDecl) map[string]string {
	bindings := map[string]string{}
	bind := func(names []*ast.Ident, typ ast.Expr) {
		name := structTypeName(typ)
		if _, ok := structs[name]; !ok {
			return
		}
		for _, id := range names {
			bindings[id.Name] = name
		}
	}
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			bind(field.Names, field.Type)
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			bind(field.Names, field.Type)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if n.Type != nil {
				bind(n.Names, n.Type)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if lit := compositeLitOf(rhs); lit != nil {
					bind([]*ast.Ident{id}, lit.Type)
				}
			}
		}
		return true
	})
	return bindings
}

// structTypeName unwraps T or *T to the named type's identifier.
func structTypeName(typ ast.Expr) string {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// compositeLitOf unwraps x or &x to a composite literal.
func compositeLitOf(e ast.Expr) *ast.CompositeLit {
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = un.X
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

// lockCall records one x.mu.Lock() call site.
type lockCall struct {
	ident, mu string
	pos       token.Pos
}

// collectLockCalls finds every x.<mu>.Lock()/RLock() where x is bound to a
// guarded struct and <mu> guards at least one of its fields.
func collectLockCalls(bindings map[string]string, structs map[string]*guardedStruct, fn *ast.FuncDecl) []lockCall {
	var locks []lockCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (method.Sel.Name != "Lock" && method.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := method.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := muSel.X.(*ast.Ident)
		if !ok {
			return true
		}
		structName, bound := bindings[id.Name]
		if !bound || !structs[structName].all[muSel.Sel.Name] {
			return true
		}
		locks = append(locks, lockCall{ident: id.Name, mu: muSel.Sel.Name, pos: call.Pos()})
		return true
	})
	return locks
}

func lockHeldBefore(locks []lockCall, ident, mu string, pos token.Pos) bool {
	for _, l := range locks {
		if l.ident == ident && l.mu == mu && l.pos < pos {
			return true
		}
	}
	return false
}

// addressPassedToOwnMethod reports whether sel occurs as &x.field in the
// arguments of a method call on the same x — the pattern
// x.bump(&x.counter), where the locked mutation lives inside the struct's
// own (checked) method.
func addressPassedToOwnMethod(fn *ast.FuncDecl, sel *ast.SelectorExpr, ident string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := method.X.(*ast.Ident)
		if !ok || recv.Name != ident {
			return true
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if ok && un.Op == token.AND && un.X == sel {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
