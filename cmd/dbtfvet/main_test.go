package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module so the exit-code contract can
// be exercised against controlled findings instead of the (clean) repo.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runIn executes run() with the working directory moved to dir, since
// module discovery starts from the process cwd like the go tool's.
func runIn(t *testing.T, dir string, patterns []string, jsonOut bool) (code int, stdout, stderr string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(patterns, false, jsonOut, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p.go": "package p\n\nfunc ok() {}\n",
	})
	code, stdout, stderr := runIn(t, dir, []string{"./..."}, false)
	if code != 0 {
		t.Fatalf("clean module: exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean module printed findings: %q", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p.go": "package p\n\nfunc leak() {\n\tgo func() {}()\n}\n",
	})
	code, stdout, _ := runIn(t, dir, []string{"./..."}, false)
	if code != 1 {
		t.Fatalf("module with leak: exit %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "[goleak]") || !strings.Contains(stdout, "p.go:4") {
		t.Fatalf("finding output missing analyzer or position: %q", stdout)
	}
}

func TestExitCodeLoadError(t *testing.T) {
	// No go.mod anywhere above the temp dir: module discovery fails.
	dir := t.TempDir()
	code, _, stderr := runIn(t, dir, []string{"./..."}, false)
	if code != 2 {
		t.Fatalf("module-less dir: exit %d, want 2 (stderr %q)", code, stderr)
	}

	// A pattern naming a missing directory is a load error, not a finding.
	mod := writeModule(t, map[string]string{"p.go": "package p\n"})
	code, _, stderr = runIn(t, mod, []string{"./nosuchpkg"}, false)
	if code != 2 {
		t.Fatalf("missing package pattern: exit %d, want 2 (stderr %q)", code, stderr)
	}
}

func TestJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"p.go": "package p\n\nfunc leak() {\n\tgo func() {}()\n}\n",
	})
	code, stdout, _ := runIn(t, dir, []string{"./..."}, true)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 JSON finding, got %d: %q", len(lines), stdout)
	}
	var f jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("finding is not valid JSON: %v (%q)", err, lines[0])
	}
	if f.File != "p.go" || f.Line != 4 || f.Analyzer != "goleak" {
		t.Errorf("finding fields = %+v, want p.go:4 goleak", f)
	}
	if f.Directive != "//dbtf:detached" {
		t.Errorf("finding directive = %q, want //dbtf:detached", f.Directive)
	}
	if f.Message == "" {
		t.Error("finding message is empty")
	}
}

func TestListDescribesScopesAndPhases(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	s := out.String()
	if strings.Contains(s, "phase:") || strings.Count(s, "scope:") != 7 {
		t.Errorf("-list should describe seven one-phase analyzers:\n%s", s)
	}
	for _, want := range []string{
		"wirebound",
		"internal/transport",
		"escape: //dbtf:bounded <reason>",
		"goleak",
		"escape: //dbtf:detached <reason>",
		"all packages",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing %q:\n%s", want, s)
		}
	}
}
