// Package analysis is the repository's analyzer suite: domain-specific
// static checks that machine-verify the invariants this codebase otherwise
// enforces only by convention — single-mutex stats snapshots, durable-write
// error hygiene, joined goroutines and cancellable blocking. Each analyzer
// catches a seeded mutation that passes every test (DESIGN.md §8); what a
// test already catches, such as a nondeterministic result or an unbounded
// wire decode, has no analyzer. TestRepoClean runs it over the module inside
// `go test ./...`.
//
// The framework is a deliberately small, dependency-free subset of
// golang.org/x/tools/go/analysis (this build environment is offline, so the
// real module is unavailable): an Analyzer runs over the parsed (not
// type-checked) files of one package and reports position-anchored
// diagnostics. Working on syntax alone keeps the suite fast and
// self-contained; each analyzer documents the approximations that follow
// from not having type information. The Analyzer/Pass shape matches x/tools
// closely enough that the suite could be rebased onto the real framework
// without rewriting the checks.
//
// Analyzers communicate with the code under analysis through //dbtf:
// directives (the annotation grammar is documented per analyzer and in
// DESIGN.md §8). Every escape hatch requires a reason: a bare directive is
// itself a diagnostic, so suppressions stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is the analyzer's one-paragraph description.
	Doc string
	// Scope restricts which packages RunSuite applies the analyzer
	// to: a package matches when its module-relative slash path equals a
	// scope entry or lives below it. Empty means every package. Fixture
	// tests bypass Scope and run the analyzer directly.
	Scope []string
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(*Pass) error
}

// AppliesTo reports whether RunSuite should run the analyzer on
// the package with the given module-relative path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass hands one package's syntax to an analyzer and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File

	diags      *[]Diagnostic
	directives map[*ast.File]map[int][]directive
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //dbtf: annotation.
type directive struct {
	name string // e.g. "allow-unguarded"
	arg  string // text after the name, trimmed
	pos  token.Pos
}

// DirectivePrefix starts every annotation the suite understands.
const DirectivePrefix = "//dbtf:"

// parseDirective splits a //dbtf:name arg... comment line; ok is false for
// other comments.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, DirectivePrefix) {
		return directive{}, false
	}
	rest := text[len(DirectivePrefix):]
	name, arg, _ := strings.Cut(rest, " ")
	return directive{name: strings.TrimSpace(name), arg: strings.TrimSpace(arg), pos: c.Pos()}, true
}

// fileDirectives indexes a file's //dbtf: directives by the line they
// govern: a directive governs its own line (inline comment) and, when it
// is the last line of its comment group, the line immediately below
// (leading comment).
func (p *Pass) fileDirectives(f *ast.File) map[int][]directive {
	if p.directives == nil {
		p.directives = map[*ast.File]map[int][]directive{}
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := map[int][]directive{}
	for _, cg := range f.Comments {
		for i, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			m[line] = append(m[line], d)
			if i == len(cg.List)-1 {
				m[line+1] = append(m[line+1], d)
			}
		}
	}
	p.directives[f] = m
	return m
}

// fileOf returns the file containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// Directive looks for a //dbtf:<name> annotation governing the line of pos
// (inline on the same line, or a comment on the line above). It returns
// the directive's argument text; found distinguishes "annotation present
// with an empty reason" from "no annotation".
func (p *Pass) Directive(pos token.Pos, name string) (arg string, found bool) {
	f := p.fileOf(pos)
	if f == nil {
		return "", false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.fileDirectives(f)[line] {
		if d.name == name {
			return d.arg, true
		}
	}
	return "", false
}

// Allowed implements the standard escape-hatch protocol: a //dbtf:<name>
// annotation with a non-empty reason suppresses the diagnostic; an
// annotation without a reason is itself reported, so every suppression in
// the tree carries its justification.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	arg, found := p.Directive(pos, name)
	if !found {
		return false
	}
	if arg == "" {
		p.Reportf(pos, "%s%s requires a reason", DirectivePrefix, name)
		return true // the bare-annotation diagnostic replaces the original
	}
	return true
}

// docDirectives parses the //dbtf: annotations of a declaration's doc
// comment (used for function-level annotations such as
// //dbtf:allow-unguarded).
func docDirectives(doc *ast.CommentGroup) []directive {
	if doc == nil {
		return nil
	}
	var out []directive
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// importName returns the local name an import spec binds.
func importName(spec *ast.ImportSpec) string {
	if spec.Name != nil {
		return spec.Name.Name
	}
	path := strings.Trim(spec.Path.Value, `"`)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// fileImports maps each local import name of f to its import path.
func fileImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, spec := range f.Imports {
		m[importName(spec)] = strings.Trim(spec.Path.Value, `"`)
	}
	return m
}

// Analyzers returns the full suite, the one TestRepoClean runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{GuardedBy, ErrCheck, GoLeak, CtxFlow}
}

// Run executes one analyzer over one loaded package, whatever its Scope,
// and returns its diagnostics sorted by position. Fixture tests use this;
// TestRepoClean uses RunSuite.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, diags: &diags}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunSuite runs every analyzer over every package its Scope admits and
// returns the diagnostics sorted by position. There is one phase: each
// check is a property of one package's syntax.
func RunSuite(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			d, err := Run(a, pkg)
			if err != nil {
				return nil, err
			}
			diags = append(diags, d...)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
