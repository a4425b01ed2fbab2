package analysis

import (
	"go/ast"
	"go/token"
)

// KernelContract machine-checks the two contracts of the raw word-slice
// kernels in internal/bitvec, which the hot paths rely on but the type
// system cannot express.
//
// Word-width contract: every call to a bitvec *Words kernel
// (AndCountWords, GainCountsWords, ...) indexes its later operands by the
// first operand's length, so all operands must have the same word count.
// A call is accepted when the enclosing function visibly establishes the
// contract before the call — a comparison of len(...) expressions or of
// the bitvec `.n` length fields (the package's internal idiom) — or when
// the call carries //dbtf:samewidth <reason>, asserting a structural
// invariant the analyzer cannot see (e.g. "block stride equals the cache's
// entry width by construction"). Precedence is textual, not dominating;
// exact for the guard-at-the-top style used here.
//
// Allocation contract: a function whose doc carries //dbtf:noalloc must
// not contain allocating constructs in its own body: make, new, append,
// composite literals, function literals, go/defer statements, or
// conversions to []byte/[]rune/string. Constructs inside the arguments of
// a panic(...) call are exempt — panic paths are cold and allowed to
// format. The check is intraprocedural: callees are checked where they are
// declared, not at the call site.
var KernelContract = &Analyzer{
	Name: "kernelcontract",
	Doc:  "checks word-width preconditions at bitvec word-kernel call sites and //dbtf:noalloc function bodies",
	Run:  runKernelContract,
}

const (
	sameWidth  = "samewidth"
	noAllocDir = "noalloc"
)

// wordKernels are the internal/bitvec functions operating on raw []uint64
// operands that must share one word count.
var wordKernels = map[string]bool{
	"AndCountWords":       true,
	"AndNotCountWords":    true,
	"AndAndNotCountWords": true,
	"OrCountWords":        true,
	"XorCountWords":       true,
	"GainCountsWords":     true,
}

const bitvecImportPath = "dbtf/internal/bitvec"

func runKernelContract(pass *Pass) error {
	for _, f := range pass.Files {
		// The kernels may be called qualified (bitvec.XorCountWords) or,
		// inside the bitvec package itself, unqualified.
		bitvecName := ""
		for name, path := range fileImports(f) {
			if path == bitvecImportPath {
				bitvecName = name
			}
		}
		inBitvec := f.Name.Name == "bitvec"
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if bitvecName != "" || inBitvec {
				checkWordKernelCalls(pass, fn, bitvecName, inBitvec)
			}
			if _, ok := funcDirective(fn, noAllocDir); ok {
				checkNoAlloc(pass, fn)
			}
		}
	}
	return nil
}

// funcDirective finds a //dbtf:<name> directive in a function's doc.
func funcDirective(fn *ast.FuncDecl, name string) (string, bool) {
	for _, d := range docDirectives(fn.Doc) {
		if d.name == name {
			return d.arg, true
		}
	}
	return "", false
}

// checkWordKernelCalls flags word-kernel calls not dominated by a visible
// width check.
func checkWordKernelCalls(pass *Pass, fn *ast.FuncDecl, bitvecName string, inBitvec bool) {
	checks := collectWidthChecks(fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var kernel string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == bitvecName && wordKernels[fun.Sel.Name] {
				kernel = fun.Sel.Name
			}
		case *ast.Ident:
			if inBitvec && wordKernels[fun.Name] {
				kernel = fun.Name
			}
		}
		if kernel == "" {
			return true
		}
		if widthCheckBefore(checks, call.Pos()) || pass.Allowed(call.Pos(), sameWidth) {
			return true
		}
		pass.Reportf(call.Pos(), "call to bitvec.%s without a visible operand-width check; compare len(...) (or .n) of the operands first, or annotate %s%s <reason>",
			kernel, DirectivePrefix, sameWidth)
		return true
	})
}

// collectWidthChecks finds the positions of length-equality comparisons: a
// ==/!= (or ordered) comparison whose operands are both len(...) calls or
// both selector expressions of a field named n (bitvec's length field).
func collectWidthChecks(fn *ast.FuncDecl) []token.Pos {
	var checks []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		if (isLenCall(be.X) && isLenCall(be.Y)) || (isLenField(be.X) && isLenField(be.Y)) {
			checks = append(checks, be.Pos())
		}
		return true
	})
	return checks
}

func isLenCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "len"
}

func isLenField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "n"
}

func widthCheckBefore(checks []token.Pos, pos token.Pos) bool {
	for _, c := range checks {
		if c < pos {
			return true
		}
	}
	return false
}

// checkNoAlloc flags allocating constructs in a //dbtf:noalloc body.
func checkNoAlloc(pass *Pass, fn *ast.FuncDecl) {
	panicArgs := collectPanicArgRanges(fn)
	exempt := func(pos token.Pos) bool {
		for _, r := range panicArgs {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, what string) {
		if !exempt(pos) {
			pass.Reportf(pos, "%s in %s, which is annotated %s%s", what, fn.Name.Name, DirectivePrefix, noAllocDir)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make", "new", "append":
					report(n.Pos(), fun.Name)
				}
			case *ast.ArrayType:
				report(n.Pos(), "slice conversion")
			}
		case *ast.CompositeLit:
			report(n.Pos(), "composite literal")
		case *ast.FuncLit:
			report(n.Pos(), "function literal")
			return false // the literal's own body is a different function
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.DeferStmt:
			report(n.Pos(), "defer statement")
		}
		return true
	})
}

// collectPanicArgRanges returns the position ranges of panic(...) argument
// lists, whose contents the noalloc check exempts.
func collectPanicArgRanges(fn *ast.FuncDecl) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			ranges = append(ranges, [2]token.Pos{call.Lparen, call.Rparen + 1})
		}
		return true
	})
	return ranges
}
