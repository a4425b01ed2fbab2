package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// A Package is one directory of parsed Go source, the unit an Analyzer
// runs over.
type Package struct {
	// Path is the module-relative slash path ("." for the module root).
	Path string
	// Dir is the absolute directory.
	Dir string
	// Fset positions are shared across the load.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
}

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load parses every package of the module rooted at root, as the go tool's
// "./..." selects them: vendored, testdata, hidden and underscore
// directories and _test.go files are skipped, and directories without Go
// files are dropped. Packages come in the walk's lexical order.
func Load(root string) ([]*Package, error) {
	fset := token.NewFileSet()
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := loadDir(fset, root, path)
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// loadDir parses the non-test Go files of one directory into a Package;
// nil when it holds none.
func loadDir(fset *token.FileSet, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  filepath.ToSlash(rel),
		Dir:   dir,
		Fset:  fset,
		Files: files,
	}, nil
}
