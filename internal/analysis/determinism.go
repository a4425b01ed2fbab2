package analysis

import (
	"go/ast"
	"go/token"
)

// Determinism enforces the replay invariant of the engine packages:
// checkpoint/resume and the seeded chaos schedule are bit-identical per
// seed only while no code in the decomposition path reads wall clocks,
// draws from the global (unseeded) math/rand generator, or iterates a map
// in an order-sensitive position.
//
//   - time.Now / time.Since / time.Until and friends are flagged; the
//     sanctioned route is the injected clock (cluster.now) or, for
//     wall-clock *reporting* that never feeds back into results, an
//     explicit //dbtf:allow-nondeterministic <reason> annotation.
//   - Global math/rand functions (rand.Intn, rand.Shuffle, ...) are
//     flagged; rand.New over rand.NewSource(seed) is the sanctioned
//     route and is not flagged.
//   - Ranging over a map is flagged when the ranged expression is
//     syntactically recognizable as a map: a local declared or made as a
//     map, or a selector whose field is declared as a map in this package.
//     Order-independent loops (e.g. deleting matching keys) carry the
//     annotation with their justification.
//
// The check is syntactic: a shadowed `time` identifier or a map reached
// through an interface is beyond it. That trade is deliberate — see the
// package comment.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "flags wall-clock reads, global math/rand use, and map iteration in replay-critical packages",
	Scope: []string{"internal/cluster", "internal/core", "internal/partition"},
	Run:   runDeterminism,
}

const allowNondet = "allow-nondeterministic"

// wallClockFuncs are the time package functions whose results depend on
// the wall clock. Referencing one (call or value) is nondeterministic
// under replay.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

// globalRandFuncs are the package-level math/rand functions backed by the
// process-global generator. Seeded generators built with rand.New are the
// sanctioned alternative.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDeterminism(pass *Pass) error {
	mapFields := collectMapFields(pass.Files)
	for _, f := range pass.Files {
		imports := fileImports(f)
		timeName, randName := "", ""
		for name, path := range imports {
			switch path {
			case "time":
				timeName = name
			case "math/rand", "math/rand/v2":
				randName = name
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			mapLocals := collectMapLocals(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch {
					case timeName != "" && id.Name == timeName && wallClockFuncs[n.Sel.Name]:
						if !pass.Allowed(n.Pos(), allowNondet) {
							pass.Reportf(n.Pos(), "%s.%s reads the wall clock; route through the injected clock or annotate %s%s <reason>",
								timeName, n.Sel.Name, DirectivePrefix, allowNondet)
						}
					case randName != "" && id.Name == randName && globalRandFuncs[n.Sel.Name]:
						if !pass.Allowed(n.Pos(), allowNondet) {
							pass.Reportf(n.Pos(), "global math/rand.%s bypasses the seeded source; use a rand.New(...) generator or annotate %s%s <reason>",
								n.Sel.Name, DirectivePrefix, allowNondet)
						}
					}
				case *ast.RangeStmt:
					if isMapExpr(n.X, mapLocals, mapFields) && !pass.Allowed(n.Pos(), allowNondet) {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic; iterate sorted keys or annotate %s%s <reason>",
							DirectivePrefix, allowNondet)
					}
				}
				return true
			})
		}
	}
	return nil
}

// collectMapFields gathers the names of struct fields and package-level
// variables declared with a map type anywhere in the package. Matching
// selector expressions by field name alone is an approximation (two
// structs could share a field name with different types), which for this
// analyzer errs on the side of flagging.
func collectMapFields(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if _, ok := field.Type.(*ast.MapType); ok {
						for _, name := range field.Names {
							names[name.Name] = true
						}
					}
				}
			case *ast.ValueSpec:
				if _, ok := n.Type.(*ast.MapType); ok {
					for _, name := range n.Names {
						names[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return names
}

// collectMapLocals gathers the identifiers a function binds to values of
// syntactically-evident map type: map-typed parameters, `var x map[...]`,
// `x := make(map[...])`, and map composite literals.
func collectMapLocals(fn *ast.FuncDecl) map[string]bool {
	locals := map[string]bool{}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, name := range field.Names {
					locals[name.Name] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, name := range n.Names {
					locals[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
				return true
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || !isMapValue(rhs) {
					continue
				}
				locals[id.Name] = true
			}
		}
		return true
	})
	return locals
}

// isMapValue reports whether an expression evidently constructs a map.
func isMapValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// isMapExpr reports whether a ranged expression is recognizably a map.
func isMapExpr(e ast.Expr, locals, fields map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return locals[e.Name]
	case *ast.SelectorExpr:
		return fields[e.Sel.Name]
	}
	return false
}
