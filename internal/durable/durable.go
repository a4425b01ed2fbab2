// Package durable replaces files so that a crash at any instant leaves
// either the old content or the new, never a torn file. It is the one
// crash-safe writer under the engine's checkpoints and the job server's
// job records and tensor store — and so the one place a test (or a future
// fault-injection seam) has to fail a durable write on purpose.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces dir/name with whatever write produces and
// returns the number of bytes written. The content goes to a temp file in
// dir (created if missing), which is fsynced, closed and renamed over the
// target; the directory is then fsynced so the rename itself survives a
// crash. On any error before the rename the target is untouched and the
// temp file is removed. The temp file's name never ends in the target's
// extension, so a directory scan that selects by extension skips a
// crash-orphaned one.
func WriteFile(dir, name string, write func(io.Writer) error) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return 0, err
	}
	n, err := writeSynced(f, write)
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		//dbtf:allow-unchecked best-effort cleanup; the error that stopped the write is the one returned
		os.Remove(f.Name())
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return n, nil
}

// writeSynced runs write against f, fsyncs it and returns its size. f is
// closed on every path.
func writeSynced(f *os.File, write func(io.Writer) error) (n int64, err error) {
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err == nil {
		n, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// syncDir fsyncs the directory, making a rename inside it durable. A
// dropped close error could mask a failed metadata flush, so it is folded
// into the result.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
