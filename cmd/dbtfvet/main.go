// Command dbtfvet runs the repository's domain-specific static-analysis
// suite (internal/analysis): determinism, lock discipline, kernel
// contracts, durable-write error hygiene, goroutine-join proofs, context
// cancellation flow, and wire-decode bounds.
// It is the multichecker CI runs as a required job next to go vet:
//
//	go vet ./... && go run ./cmd/dbtfvet ./...
//
// or, with -govet, dbtfvet chains the stock passes itself:
//
//	go run ./cmd/dbtfvet -govet ./...
//
// Every analyzer is one pass over one package's syntax. -json emits one
// JSON object per finding for CI annotation.
//
// Patterns follow the go tool's shape ("./...", "./internal/cluster",
// "internal/core/..."); the default is "./...". Each analyzer carries its
// own package scope (see -list), so running the full tree is always safe.
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"dbtf/internal/analysis"
)

func main() {
	govet := flag.Bool("govet", false, "also run the stock go vet passes on the same patterns")
	list := flag.Bool("list", false, "list the suite's analyzers with scopes and escape directives, then exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON objects, one per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dbtfvet [-govet] [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns, *govet, *jsonOut, os.Stdout, os.Stderr))
}

// printList describes each analyzer: scope (so the package-restricted
// ones like wirebound are discoverable) and its escape-hatch directive.
func printList(w io.Writer) {
	for _, a := range analysis.Analyzers() {
		scope := "all packages"
		if len(a.Scope) > 0 {
			scope = strings.Join(a.Scope, ", ")
		}
		fmt.Fprintf(w, "%-16s %s\n%16s scope: %s\n", a.Name, a.Doc, "", scope)
		if a.Escape != "" {
			fmt.Fprintf(w, "%16s escape: %s%s <reason>\n", "", analysis.DirectivePrefix, a.Escape)
		}
	}
}

// jsonFinding is the machine-readable shape of one diagnostic; directive
// names the //dbtf: escape hatch that would suppress it, when the
// analyzer has one.
type jsonFinding struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Column    int    `json:"column"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Directive string `json:"directive,omitempty"`
}

func run(patterns []string, govet, jsonOut bool, stdout, stderr io.Writer) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "dbtfvet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "dbtfvet:", err)
		return 2
	}
	pkgs, err := analysis.Load(root, patterns, false)
	if err != nil {
		fmt.Fprintln(stderr, "dbtfvet:", err)
		return 2
	}
	analyzers := analysis.Analyzers()
	escapes := map[string]string{}
	for _, a := range analyzers {
		if a.Escape != "" {
			escapes[a.Name] = analysis.DirectivePrefix + a.Escape
		}
	}
	diags, err := analysis.RunSuite(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "dbtfvet:", err)
		return 2
	}
	findings := 0
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		// Report module-relative paths so output is stable across
		// checkouts.
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		if jsonOut {
			enc.Encode(jsonFinding{
				File:      d.Pos.Filename,
				Line:      d.Pos.Line,
				Column:    d.Pos.Column,
				Analyzer:  d.Analyzer,
				Message:   d.Message,
				Directive: escapes[d.Analyzer],
			})
		} else {
			fmt.Fprintln(stdout, d)
		}
		findings++
	}
	if govet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = cwd
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintln(stderr, "dbtfvet: go vet:", err)
				return 2
			}
			findings++
		}
	}
	if findings > 0 {
		return 1
	}
	return 0
}
