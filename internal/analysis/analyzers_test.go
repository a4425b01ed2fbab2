package analysis

import (
	"testing"
)

// Each analyzer is exercised against its fixture package, which seeds
// true positives (want comments), accepted negatives (clean code that
// must stay silent), and the escape-hatch path including the
// reason-required rule.

func TestDeterminismFixture(t *testing.T)    { RunFixture(t, Determinism, "determinism") }
func TestGuardedByFixture(t *testing.T)      { RunFixture(t, GuardedBy, "guardedby") }
func TestKernelContractFixture(t *testing.T) { RunFixture(t, KernelContract, "kernelcontract") }
func TestErrCheckFixture(t *testing.T)       { RunFixture(t, ErrCheck, "errcheck") }
func TestGoLeakFixture(t *testing.T)         { RunFixture(t, GoLeak, "goleak") }
func TestCtxFlowFixture(t *testing.T)        { RunFixture(t, CtxFlow, "ctxflow") }
func TestWireBoundFixture(t *testing.T)      { RunFixture(t, WireBound, "wirebound") }

func TestScopeMatching(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"internal/cluster", "internal/core"}}
	for path, want := range map[string]bool{
		"internal/cluster":     true,
		"internal/cluster/sub": true,
		"internal/clusterette": false,
		"internal/core":        true,
		"internal/partition":   false,
		".":                    false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	unscoped := &Analyzer{Name: "y"}
	if !unscoped.AppliesTo("anything/at/all") {
		t.Error("unscoped analyzer must apply everywhere")
	}
}

func TestAnalyzersRegistry(t *testing.T) {
	all := Analyzers()
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
