package analysis

import "testing"

// TestRepoClean runs the full suite over the entire module (benchmark/
// included) and asserts zero diagnostics. This is the in-process equivalent of
// `go run ./cmd/dbtfvet ./...` exiting 0, so a change that introduces a
// finding (or breaks an annotation) fails `go test ./...` directly rather
// than only the CI lint job.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./..."}, false)
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
