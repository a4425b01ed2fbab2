package analysis

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docRef is a code reference written into the prose: `path/file.go:N` or
// `path/file.go:N-M`, the path as many trailing segments as it takes.
var docRef = regexp.MustCompile("`([\\w./-]+\\.go):(\\d+)(?:-(\\d+))?`")

// namedRef is a reference that names what it points at:
// `ident` (`path/file.go:N`), the two spans possibly on two lines.
var namedRef = regexp.MustCompile("`([A-Za-z_][\\w.]*)`\\s*\\(`([\\w./-]+\\.go):(\\d+)(?:-(\\d+))?`")

// designRef cites a section of DESIGN.md: `DESIGN §N`, `DESIGN.md §N.M`.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)`)

// experimentsRef cites a section of EXPERIMENTS.md by its title, which may
// run over two lines: `EXPERIMENTS "Column lookahead"`.
var experimentsRef = regexp.MustCompile(`EXPERIMENTS\s+"([^"]+)"`)

// TestDocReferencesResolve holds ROADMAP.md and DESIGN.md to the tree they
// describe: every `file.go:N[-M]` names exactly one Go file of the module
// (by path suffix) that has line N (and M), and a reference written as
// `ident` (`file.go:N`) finds the identifier — its last dotted segment —
// within two lines of N. Across the Go files and the Markdown that
// TestProseBudget covers (proseDocs at the root, every file below it), every
// DESIGN citation of a section §N[.M] names a heading of DESIGN.md or item
// M of §N's numbered list, and every EXPERIMENTS citation of a quoted title
// a heading or a bold lead-in of EXPERIMENTS.md. A reference that drifted because its file or its section
// changed fails here instead of misleading the next reader.
func TestDocReferencesResolve(t *testing.T) {
	root := moduleRoot(t)
	var files, docs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir():
		case strings.HasSuffix(path, ".go"):
			files = append(files, rel)
		case strings.HasSuffix(path, ".md") && (strings.Contains(rel, "/") || slices.Contains(proseDocs, rel)):
			docs = append(docs, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSectionRefs(t, root, append(docs, files...))
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

// checkSectionRefs resolves every designRef and experimentsRef in paths
// against the sections of DESIGN.md and EXPERIMENTS.md.
func checkSectionRefs(t *testing.T, root string, paths []string) {
	t.Helper()
	read := func(path string) string {
		text, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}
	// A DESIGN section is a numbered heading, `## N.` or `### N.M`, or, in
	// a section N without numbered subheadings, an item `M.` of the numbered
	// list at column 0 under it.
	design, items := map[string]bool{}, map[string][]string{}
	heading, item := regexp.MustCompile(`^##+ (\d+(?:\.\d+)?)\.? `), regexp.MustCompile(`^(\d+)\. `)
	section := ""
	for _, line := range strings.Split(read("DESIGN.md"), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			design[m[1]] = true
			if !strings.Contains(m[1], ".") {
				section = m[1]
			}
		} else if m := item.FindStringSubmatch(line); m != nil && section != "" {
			items[section] = append(items[section], section+"."+m[1])
		}
	}
	for _, list := range items {
		for _, sub := range list {
			if design[sub] {
				list = nil // §N.M is a heading: the list's items are not sections
			}
		}
		for _, sub := range list {
			design[sub] = true
		}
	}
	// An EXPERIMENTS section is a heading or a bold lead-in; a title names
	// it when the two agree up to the title's end, at a word's end.
	var titles []string
	for _, line := range strings.Split(read("EXPERIMENTS.md"), "\n") {
		if lead, ok := strings.CutPrefix(line, "**"); ok && strings.Contains(lead, "**") {
			titles = append(titles, lead[:strings.Index(lead, "**")])
		} else if strings.HasPrefix(line, "#") {
			titles = append(titles, strings.TrimLeft(line, "# "))
		}
	}
	names := func(title, cited string) bool {
		rest, ok := strings.CutPrefix(title, cited)
		return ok && (rest == "" || !unicode.IsLetter(rune(rest[0])) && !unicode.IsDigit(rune(rest[0])))
	}
	refs := 0
	for _, path := range paths {
		text := read(path)
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			refs++
			if !design[m[1]] {
				t.Errorf("%s: %q names no heading or list item of DESIGN.md", path, m[0])
			}
		}
		for _, m := range experimentsRef.FindAllStringSubmatch(text, -1) {
			refs++
			cited := strings.Join(strings.Fields(m[1]), " ")
			if !slices.ContainsFunc(titles, func(title string) bool { return names(title, cited) }) {
				t.Errorf("%s: EXPERIMENTS %q names no heading or bold lead-in of EXPERIMENTS.md", path, cited)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no DESIGN or EXPERIMENTS section reference found: the patterns went blind")
	}
}

// proseDocs are the documents at the module root that the prose budget
// covers; below the root every Markdown file counts.
var proseDocs = []string{"CHANGES.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md",
	"PAPERS.md", "README.md", "ROADMAP.md", "SNIPPETS.md"}

// proseCeiling is the bytes proseDocs and the Markdown files below the root
// may hold together. It only goes down: a change that adds prose removes as
// much, and moving text from one file to another saves nothing.
const proseCeiling = 253_255

// TestProseBudget holds the prose to proseCeiling, and each CHANGES.md
// entry — a line that starts at column 0 with the indented lines under it —
// to 25 lines: an entry keeps its claim, what it deleted and the tests it
// changed, and git keeps the rest.
func TestProseBudget(t *testing.T) {
	root := moduleRoot(t)
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// The git store and the benchmark's build cache hold no prose.
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		atRoot := filepath.Dir(path) == root
		if d.IsDir() || !strings.HasSuffix(path, ".md") || atRoot && !slices.Contains(proseDocs, d.Name()) {
			return nil
		}
		info, err := d.Info()
		total += int(info.Size())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if total > proseCeiling {
		t.Errorf("the Markdown files hold %d B, over the %d B ceiling", total, proseCeiling)
	}
	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	start, entry := 0, ""
	lines := strings.Split(strings.TrimSuffix(string(changes), "\n"), "\n")
	for i, line := range append(lines, "end") {
		if strings.HasPrefix(line, " ") {
			continue
		}
		if n := i - start; entry != "" && n > 25 {
			t.Errorf("CHANGES.md:%d: the entry %.40q runs %d lines, over 25", start+1, entry, n)
		}
		start, entry = i, line
	}
}
