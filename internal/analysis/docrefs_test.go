package analysis

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docRef is a code reference written into the prose: `path/file.go:N` or
// `path/file.go:N-M`, the path as many trailing segments as it takes.
var docRef = regexp.MustCompile("`([\\w./-]+\\.go):(\\d+)(?:-(\\d+))?`")

// namedRef is a reference that names what it points at:
// `ident` (`path/file.go:N`), the two spans possibly on two lines.
var namedRef = regexp.MustCompile("`([A-Za-z_][\\w.]*)`\\s*\\(`([\\w./-]+\\.go):(\\d+)(?:-(\\d+))?`")

// TestDocReferencesResolve holds ROADMAP.md and DESIGN.md to the tree they
// describe: every `file.go:N[-M]` names exactly one Go file of the module
// (by path suffix) that has line N (and M), and a reference written as
// `ident` (`file.go:N`) finds the identifier — its last dotted segment —
// within two lines of N. A reference that drifted because its file changed
// fails here instead of misleading the next reader.
func TestDocReferencesResolve(t *testing.T) {
	root := moduleRoot(t)
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, path)
			files = append(files, filepath.ToSlash(rel))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// lines holds the lines of the one file each reference names; nil when
	// it names none or several.
	lines := map[string][]string{}
	resolve := func(doc, ref string) []string {
		if src, ok := lines[ref]; ok {
			return src
		}
		var match []string
		for _, f := range files {
			if f == ref || strings.HasSuffix(f, "/"+ref) {
				match = append(match, f)
			}
		}
		lines[ref] = nil
		if len(match) != 1 {
			t.Errorf("%s: `%s` names %d files %v, want exactly one", doc, ref, len(match), match)
			return nil
		}
		src, err := os.ReadFile(filepath.Join(root, match[0]))
		if err != nil {
			t.Fatal(err)
		}
		lines[ref] = strings.Split(string(bytes.TrimSuffix(src, []byte("\n"))), "\n")
		return lines[ref]
	}
	// span parses N and the optional M of a reference.
	span := func(n, m string) (int, int) {
		lo, _ := strconv.Atoi(n)
		hi := lo
		if m != "" {
			hi, _ = strconv.Atoi(m)
		}
		return lo, hi
	}
	refs := 0
	for _, doc := range []string{"ROADMAP.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(text), -1) {
			refs++
			src := resolve(doc, m[1])
			if lo, hi := span(m[2], m[3]); src != nil && (lo < 1 || hi < lo || hi > len(src)) {
				t.Errorf("%s: %s is past the end of a %d-line file", doc, m[0], len(src))
			}
		}
		for _, m := range namedRef.FindAllStringSubmatch(string(text), -1) {
			src := lines[m[2]]
			lo, hi := span(m[3], m[4])
			if src == nil || lo < 1 || hi > len(src) {
				continue // reported above
			}
			ident := m[1][strings.LastIndex(m[1], ".")+1:]
			if !strings.Contains(strings.Join(src[max(lo-3, 0):min(hi+2, len(src))], "\n"), ident) {
				t.Errorf("%s: `%s` is not within two lines of %s:%d", doc, m[1], m[2], lo)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no code reference found in ROADMAP.md or DESIGN.md: the pattern went blind")
	}
}
