// Package fsys is the one way the storage packages replace a file
// durably: write a temp file beside it, fsync it, rename it over the
// old one, fsync the directory. A crash or a failed write at any point
// leaves the old file as it was; after a nil return the new one
// survives power loss.
package fsys

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with the bytes write puts into w. The
// temp file is created in path's directory with os.CreateTemp's
// pattern (so a caller's sweep can recognise its strays) and removed
// on any error; path is only touched by the final rename. An error
// from write is returned as it is.
func WriteFileAtomic(path, pattern string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() { _ = os.Remove(tmpName) }() // no-op after a successful rename
	if err := write(tmp); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	// The rename is durable against a process crash; only a directory
	// fsync makes the new entry survive power loss, which can otherwise
	// roll the directory back to the old (now unlinked) file.
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames, creations and removals inside
// it survive power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}
