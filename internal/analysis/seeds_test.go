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
	root, err := findModuleRoot(wd)
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	return root
}

// TestAnalyzersSeeProgramCode seeds one violation per row into the
// program's own source — in memory, the tree is not touched — and demands
// that the named analyzer, run as TestRepoClean runs it (registered in
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
		// An unlocked LiveMachines passes go test -race on cluster, core
		// and the root package: only guardedby sees the race.
		{"guardedby", "internal/cluster/cluster.go",
			"func (c *Cluster) LiveMachines() int {\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.aliveCount\n",
			"func (c *Cluster) LiveMachines() int {\n\treturn c.aliveCount\n"},
		// A dropped Close error in syncDir passes the durable, core and
		// serve tests: no test fails a directory's close.
		{"errcheck", "internal/durable/durable.go",
			"\tif cerr := d.Close(); err == nil {\n\t\terr = cerr\n\t}\n",
			"\td.Close()\n"},
		// An unjoined goroutine in Server.runJob passes the serve tests.
		{"goleak", "internal/serve/server.go",
			"\tdefer s.wg.Done()\n",
			"\tdefer s.wg.Done()\n\tgo s.store.Get(j.Spec.TensorID)\n"},
		// A Partitions.acquire that waits out another run's build without
		// watching its own context passes the core and serve tests.
		{"ctxflow", "internal/core/partitions.go",
			"\t\tselect {\n\t\tcase <-done:\n\t\tcase <-ctx.Done():\n\t\t\treturn px, false, ctx.Err()\n\t\t}\n",
			"\t\t<-done\n"},
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
		pkg, err := loadDir(fset, root, filepath.Dir(path))
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
