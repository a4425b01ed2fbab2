package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbtf"
)

// TestRunRefusesAStreamWithoutARun: a trace is accepted only when it holds
// a completed run. An empty file is refused as holding none, a stream cut
// after its run_begin for its open span; the trace of a small Factorize
// passes.
func TestRunRefusesAStreamWithoutARun(t *testing.T) {
	dir := t.TempDir()
	var rec bytes.Buffer
	x, _ := dbtf.TensorFromRandomFactors(rand.New(rand.NewSource(1)), 10, 10, 10, 2, 0.3)
	tracer := dbtf.NewTracer(dbtf.NewJSONLTrace(&rec))
	if _, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 2, Machines: 2, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(rec.String(), "\n")
	if !strings.Contains(first, `"run_begin"`) {
		t.Fatalf("the trace opens with %s, not a run_begin", first)
	}
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := run([]string{write("empty.jsonl", "")}); err == nil || !strings.Contains(err.Error(), "no run in trace") {
		t.Errorf("an empty file: %v, want no run in trace", err)
	}
	if err := run([]string{write("begun.jsonl", first+"\n")}); err == nil {
		t.Error("a stream holding only a run_begin passed")
	}
	if err := run([]string{write("run.jsonl", rec.String())}); err != nil {
		t.Errorf("a recorded run's trace: %v", err)
	}
}
