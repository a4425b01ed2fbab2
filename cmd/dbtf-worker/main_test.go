package main

import (
	"strings"
	"testing"
)

// TestDeprecatedThreadsFlagStillParses: the frozen benchmark starts its
// workers with "-threads 1", so the ignored flag must not become a parse
// error. Flag parsing comes first, so reaching the -drain check proves it.
func TestDeprecatedThreadsFlagStillParses(t *testing.T) {
	err := run([]string{"-threads", "4", "-drain", "0s"})
	if err == nil || !strings.Contains(err.Error(), "-drain must be positive") {
		t.Fatalf("run(-threads 4 -drain 0s) = %v, want the -drain check", err)
	}
}
