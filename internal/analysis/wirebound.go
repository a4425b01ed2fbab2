package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// WireBound enforces the bounded-decode discipline on wire-facing code:
// an allocation sized by a value read off the wire must be preceded by a
// bound check, or a forged header buys an attacker gigabytes of memory.
// The fuzz targets (FuzzWireDecode, FuzzTensorDecode, ...) probe this
// property; wirebound makes it a compile-time style contract over every
// decode path, fuzzed or not.
//
// Taint sources (syntactic): calls whose final selector is one of
// binary's fixed-width readers (Uint16/Uint32/Uint64), varint readers
// (ReadUvarint/ReadVarint on a stream, Uvarint/Varint on a slice), or the
// checkpoint cursor helpers
// (u16/u32/u64); plus calls through a local closure whose body wraps one
// of those (the `read := func() ... ReadUvarint ...` idiom). Taint
// propagates through assignments — a value derived from tainted operands
// is tainted — and through index assignment into a slice (dims[i] = v
// taints dims).
//
// A tainted value becomes *checked* once it appears inside an if
// condition's comparison before the use (textual precedence, the suite's
// usual stand-in for dominance — exact for this codebase's
// validate-then-allocate style). For-loop conditions deliberately do not
// count: `for i < n` bounds i, it does not validate n. Values derived
// only from checked taint are born checked.
//
// Findings: make() with a tainted unchecked size/capacity argument, and
// append() inside a for loop whose condition is bounded by a tainted
// unchecked value. There is no escape hatch: the fix is the bound check.
//
// The audit is closed over calls: a call from an audited package into a
// module-internal Decode*/Read* function whose package is outside Scope
// is reported — decode work must not migrate outside the analyzer's
// scope unnoticed.
var WireBound = &Analyzer{
	Name:  "wirebound",
	Doc:   "wire-decoded sizes need a bound check before make/append",
	Scope: []string{"internal/transport", "internal/serve", "internal/core", "internal/tensor", "internal/boolmat"},
	Run:   runWireBound,
}

// wireSources are the final selector names that produce wire-controlled
// integers.
var wireSources = map[string]bool{
	"Uint16": true, "Uint32": true, "Uint64": true,
	"ReadUvarint": true, "ReadVarint": true,
	"Uvarint": true, "Varint": true,
	"u16": true, "u32": true, "u64": true,
}

func runWireBound(pass *Pass) error {
	for _, f := range pass.Files {
		checkDecodeCalls(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkWireFunc(pass, fn)
		}
	}
	return nil
}

// taintState tracks one identifier's wire taint through a function walk.
type taintState struct {
	taintPos token.Pos // where it became tainted
	checkPos token.Pos // first if-condition mention, or NoPos
}

// wireWalk is the per-function taint engine. Statements are visited in
// source order (pre-order Inspect), matching the textual-precedence
// model used across the suite.
type wireWalk struct {
	pass    *Pass
	sources map[string]bool // local closures wrapping a source
	taint   map[string]*taintState
}

func checkWireFunc(pass *Pass, fn *ast.FuncDecl) {
	w := &wireWalk{pass: pass, sources: map[string]bool{}, taint: map[string]*taintState{}}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.IfStmt:
			w.check(n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				w.loopBound(n)
			}
		case *ast.CallExpr:
			w.makeCall(n)
		}
		return true
	})
}

// assign handles taint birth and propagation for one assignment.
func (w *wireWalk) assign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			// v, err := read(): the single call taints every result.
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		// A closure wrapping a source makes its name a source.
		if lit, ok := rhs.(*ast.FuncLit); ok {
			if id, ok := lhs.(*ast.Ident); ok && w.litWrapsSource(lit) {
				w.sources[id.Name] = true
			}
			continue
		}
		tainted, allChecked := w.exprTaint(rhs, as.Pos())
		if !tainted {
			continue
		}
		st := &taintState{taintPos: as.Pos()}
		if allChecked {
			st.checkPos = as.Pos()
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name != "_" && l.Name != "err" {
				w.taint[l.Name] = st
			}
		case *ast.IndexExpr:
			// dims[i] = v: the whole slice is wire-controlled now.
			if id, ok := l.X.(*ast.Ident); ok {
				w.taint[id.Name] = st
			}
		}
	}
}

// litWrapsSource reports whether a func literal's body calls a wire
// source — the decode-closure idiom.
func (w *wireWalk) litWrapsSource(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && w.callIsSource(call) {
			found = true
		}
		return true
	})
	return found
}

// callIsSource matches direct source calls (binary.BigEndian.Uint32,
// binary.ReadUvarint, c.u32) and calls through a registered closure.
func (w *wireWalk) callIsSource(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return wireSources[fun.Sel.Name]
	case *ast.Ident:
		return w.sources[fun.Name]
	}
	return false
}

// exprTaint reports whether e mentions tainted/source material at pos,
// and whether every tainted mention was already checked.
func (w *wireWalk) exprTaint(e ast.Expr, pos token.Pos) (tainted, allChecked bool) {
	allChecked = true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if w.callIsSource(n) {
				tainted = true
				allChecked = false
			}
		case *ast.Ident:
			if st, ok := w.taint[n.Name]; ok && st.taintPos < pos {
				tainted = true
				if st.checkPos == token.NoPos || st.checkPos > pos {
					allChecked = false
				}
			}
		}
		return true
	})
	return tainted, allChecked
}

// check marks every tainted identifier mentioned in an if condition as
// checked from here on.
func (w *wireWalk) check(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if st, ok := w.taint[id.Name]; ok && st.checkPos == token.NoPos {
				st.checkPos = cond.Pos()
			}
		}
		return true
	})
}

// loopBound flags appends inside a for loop bounded by unchecked taint.
func (w *wireWalk) loopBound(loop *ast.ForStmt) {
	tainted, allChecked := w.exprTaint(loop.Cond, loop.Pos())
	if !tainted || allChecked {
		return
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		w.pass.Reportf(call.Pos(), "append grows under a loop bounded by a wire-decoded value with no prior bound check; validate the count first")
		return false
	})
}

// makeCall flags make() whose size or capacity is unchecked taint.
func (w *wireWalk) makeCall(call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) < 2 {
		return
	}
	for _, arg := range call.Args[1:] {
		tainted, allChecked := w.exprTaint(arg, call.Pos())
		if tainted && !allChecked {
			w.pass.Reportf(call.Pos(), "make sized by a wire-decoded value with no prior bound check; a forged header controls this allocation — validate it first")
			return
		}
	}
}

// checkDecodeCalls reports calls into the Decode*/Read* entry points of
// module-internal packages outside the analyzer's Scope: either widen
// Scope or move the decoder.
func checkDecodeCalls(pass *Pass, f *ast.File) {
	unaudited := map[string]string{} // local import name → import path
	for name, path := range fileImports(f) {
		// path[i:] is "internal/...", the module-relative form Scope is
		// written in.
		if i := strings.Index("/"+path, "/internal/"); i >= 0 && !pass.Analyzer.AppliesTo(path[i:]) {
			unaudited[name] = path
		}
	}
	if len(unaudited) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		path, ok := unaudited[base.Name]
		if !ok {
			return true
		}
		if strings.HasPrefix(sel.Sel.Name, "Decode") || strings.HasPrefix(sel.Sel.Name, "Read") {
			pass.Reportf(call.Pos(), "%s in %s is a decode entry point outside wirebound's audited packages; add the package to the analyzer Scope or move the decoder into an audited package", sel.Sel.Name, path)
		}
		return true
	})
}
