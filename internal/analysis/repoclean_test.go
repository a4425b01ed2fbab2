package analysis

import "testing"

// TestRepoClean runs the full suite over the entire module (benchmark/
// included) and asserts zero diagnostics. It is the suite's one front end: a
// change that introduces a finding (or breaks an annotation) fails
// `go test ./...` directly.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load(moduleRoot(t))
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	diags, err := RunSuite(Analyzers(), pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
