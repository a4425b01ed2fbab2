package analysis

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot locates the module the test runs in.
func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	return root
}

// TestAnalyzersSeeProgramCode seeds one violation per row into the
// program's own source — in memory, the tree is not touched — and demands
// that the named analyzer, run as the multichecker runs it (registered in
// Analyzers, restricted by Scope), reports inside the edited lines. The
// fixtures prove an analyzer implements its rule; this proves the rule
// reads the code it is said to govern. lockorder passed its fixtures for
// thirteen PRs while seeing none of the module's nested acquisitions, and
// nothing failed. A row whose text the program no longer contains fails:
// re-aim it at the code that replaced it, do not delete it.
func TestAnalyzersSeeProgramCode(t *testing.T) {
	root := moduleRoot(t)
	for _, seed := range []struct {
		analyzer, file, text, replacement string
	}{
		{"guardedby", "internal/cluster/cluster.go",
			"func (c *Cluster) LiveMachines() int {\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.aliveCount\n",
			"func (c *Cluster) LiveMachines() int {\n\treturn c.aliveCount\n"},
		{"determinism", "internal/core/registry.go",
			"\t//dbtf:allow-nondeterministic every entry is released; order is irrelevant\n\tfor _, mc := range r.entries {\n",
			"\tfor _, mc := range r.entries {\n"},
		{"kernelcontract", "internal/core/executor.go",
			"\t\t//dbtf:samewidth every column is sliced to the block width the caller sized scratch for\n\t\tpop = bitvec.OrCountWords(scratch, scratch,",
			"\t\tpop = bitvec.OrCountWords(scratch, scratch,"},
		{"kernelcontract", "internal/core/task.go",
			"\tdeltas := t.deltas[:rows*lanes]\n\tclear(deltas)\n",
			"\tdeltas := make([]int64, rows*lanes)\n\tclear(deltas)\n"},
		{"errcheck", "internal/durable/durable.go",
			"\tif cerr := d.Close(); err == nil {\n\t\terr = cerr\n\t}\n",
			"\td.Close()\n"},
		{"goleak", "internal/serve/server.go",
			"\tdefer s.wg.Done()\n",
			"\tdefer s.wg.Done()\n\tgo s.store.Get(j.Spec.TensorID)\n"},
		{"ctxflow", "internal/transport/tcp/tcp.go",
			"\t\t\tvar o outcome\n\t\t\tselect {\n",
			"\t\t\to := <-results\n\t\t\tselect {\n"},
		{"wirebound", "internal/boolmat/binary.go",
			"\tif uint64(len(rest)) < uint64(rows)*8 {\n\t\treturn nil, nil, fmt.Errorf(\"boolmat: factor snapshot truncated: %d mask bytes, want %d rows\", len(rest), rows)\n\t}\n\tmasks := make([]uint64, rows)\n",
			"\tmasks := make([]uint64, rows)\n"},
	} {
		path := filepath.Join(root, filepath.FromSlash(seed.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(src, []byte(seed.text)); n != 1 {
			t.Errorf("%s seed: %s holds its text %d times, want once — the program moved, re-aim the seed:\n%s", seed.analyzer, seed.file, n, seed.text)
			continue
		}
		first := 1 + bytes.Count(src[:bytes.Index(src, []byte(seed.text))], []byte("\n"))
		last := first + strings.Count(strings.TrimSuffix(seed.replacement, "\n"), "\n")
		fset := token.NewFileSet()
		pkg, err := loadDir(fset, root, filepath.Dir(path), false)
		if err != nil {
			t.Fatal(err)
		}
		edited, err := parser.ParseFile(fset, path, bytes.Replace(src, []byte(seed.text), []byte(seed.replacement), 1), parser.ParseComments)
		if err != nil {
			t.Fatalf("%s seed does not parse: %v", seed.analyzer, err)
		}
		for i, f := range pkg.Files {
			if fset.Position(f.Package).Filename == path {
				pkg.Files[i] = edited
			}
		}
		diags, err := RunSuite(Analyzers(), []*Package{pkg})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range diags {
			if d.Analyzer == seed.analyzer && d.Pos.Filename == path && first <= d.Pos.Line && d.Pos.Line <= last {
				found = true
			}
		}
		if !found {
			t.Errorf("%s reports nothing at %s:%d-%d after the seed; got %v", seed.analyzer, seed.file, first, last, diags)
		}
	}
}
