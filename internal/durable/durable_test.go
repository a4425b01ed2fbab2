package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeBytes(data string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	}
}

// assertNoTemp fails if any temp file survives anywhere under root.
func assertNoTemp(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && filepath.Ext(path) == ".tmp" {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	for _, content := range []string{"first version", "second, longer version"} {
		n, err := WriteFile(dir, "state.bin", writeBytes(content))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(content)) {
			t.Errorf("WriteFile returned %d bytes, want %d", n, len(content))
		}
		got, err := os.ReadFile(filepath.Join(dir, "state.bin"))
		if err != nil || string(got) != content {
			t.Fatalf("file holds %q, %v; want %q", got, err, content)
		}
	}
	assertNoTemp(t, dir)
}

// TestWriteFileFailureKeepsOldFile fails the write at each point a caller or
// the file system can fail it — the content callback, the rename, the
// directory itself — and requires the previous content to survive untouched
// with no temp file left over.
func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	const old = "the old record"
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		// setup lays out root and returns the (dir, name) to write and the
		// path whose old content must survive.
		setup func(t *testing.T, root string) (dir, name, keep string)
		write func(io.Writer) error
		is    error
	}{
		{
			name: "write callback fails after a partial write",
			setup: func(t *testing.T, root string) (string, string, string) {
				keep := filepath.Join(root, "rec.json")
				mustWrite(t, keep, old)
				return root, "rec.json", keep
			},
			write: func(w io.Writer) error {
				if _, err := io.WriteString(w, "half a rec"); err != nil {
					return err
				}
				return errBoom
			},
			is: errBoom,
		},
		{
			name: "rename fails: the target is a non-empty directory",
			setup: func(t *testing.T, root string) (string, string, string) {
				keep := filepath.Join(root, "rec.json", "inner")
				mustWrite(t, keep, old)
				return root, "rec.json", keep
			},
			write: writeBytes("new"),
		},
		{
			name: "directory cannot be created: a file is in the way",
			setup: func(t *testing.T, root string) (string, string, string) {
				keep := filepath.Join(root, "blocker")
				mustWrite(t, keep, old)
				return filepath.Join(keep, "sub"), "rec.json", keep
			},
			write: writeBytes("new"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir, name, keep := tc.setup(t, root)
			n, err := WriteFile(dir, name, tc.write)
			if err == nil {
				t.Fatal("WriteFile succeeded")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap %v", err, tc.is)
			}
			if n != 0 {
				t.Errorf("failed write reported %d bytes", n)
			}
			if got, rerr := os.ReadFile(keep); rerr != nil || string(got) != old {
				t.Errorf("old content is %q, %v; want %q intact", got, rerr, old)
			}
			assertNoTemp(t, root)
		})
	}
}

func mustWrite(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
