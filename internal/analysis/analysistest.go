package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// This file is the suite's analysistest equivalent: fixture packages under
// testdata/src/<name> annotate the lines where an analyzer must report
// with
//
//	// want "regexp"
//
// comments (multiple quoted regexps allowed on one line, matched in any
// order), exactly like golang.org/x/tools/go/analysis/analysistest.
// Fixture files must parse but are never compiled, so they may freely
// model both true positives and accepted negatives.

// wantRE extracts the quoted regexps of a want comment.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// expectation is one want entry: a diagnostic matching re must occur at
// (file, line).
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// TB is the subset of testing.TB the runner needs; it keeps this
// non-test file from importing the testing package.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunFixture loads testdata/src/<fixture> as one package, runs the
// analyzer over it (bypassing Scope), and checks the reported diagnostics
// against the fixture's want comments: every diagnostic must be expected
// and every expectation must fire.
func RunFixture(t TB, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	fset := token.NewFileSet()
	pkg, err := loadDir(fset, dir, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
		return
	}
	if pkg == nil {
		t.Fatalf("fixture %s holds no Go files", dir)
		return
	}
	expects, err := collectExpectations(fset, dir)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
		return
	}
	diags, err := Run(a, pkg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
		return
	}
	for _, d := range diags {
		if !consumeExpectation(expects, d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// collectExpectations parses the want comments of every fixture file.
func collectExpectations(fset *token.FileSet, dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var expects []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				matches := wantRE.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without a quoted regexp", path, line)
				}
				for _, m := range matches {
					text := m[1]
					if m[2] != "" {
						text = m[2]
					} else {
						text = strings.ReplaceAll(text, `\"`, `"`)
					}
					re, err := regexp.Compile(text)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", path, line, text, err)
					}
					expects = append(expects, &expectation{file: path, line: line, re: re})
				}
			}
		}
	}
	return expects, nil
}

// consumeExpectation marks the first unhit expectation matching d.
func consumeExpectation(expects []*expectation, d Diagnostic) bool {
	for _, e := range expects {
		if e.hit || e.line != d.Pos.Line || e.file != d.Pos.Filename {
			continue
		}
		if e.re.MatchString(d.Message) {
			e.hit = true
			return true
		}
	}
	return false
}
