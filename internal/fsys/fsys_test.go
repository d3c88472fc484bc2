package fsys

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileAtomicReplaces: a complete write replaces the old file
// and leaves no temp file behind.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, ".f-*.tmp", func(w io.Writer) error {
		_, err := io.WriteString(w, "new contents")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, "new contents")
	assertNoStrays(t, dir)
}

// TestWriteFileAtomicKeepsOldOnFailure: a write that fails, whether
// before any byte or after a torn half, leaves the old file byte for
// byte and no temp file behind.
func TestWriteFileAtomicKeepsOldOnFailure(t *testing.T) {
	boom := errors.New("disk full")
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"fails at once", func(io.Writer) error { return boom }},
		{"torn after half", func(w io.Writer) error {
			if _, err := io.WriteString(w, "new con"); err != nil {
				return err
			}
			return boom
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := WriteFileAtomic(path, ".f-*.tmp", tc.write); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			assertFile(t, path, "old")
			assertNoStrays(t, dir)
		})
	}
}

// TestWriteFileAtomicMissingDir: a directory that does not exist is an
// error, not a panic or a file somewhere else.
func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "f")
	err := WriteFileAtomic(path, ".f-*.tmp", func(io.Writer) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "temp file") {
		t.Fatalf("err = %v, want a temp file error", err)
	}
	if err := SyncDir(filepath.Dir(path)); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}

func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s = %q, want %q", path, got, want)
	}
}

func assertNoStrays(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "f" {
			t.Fatalf("stray %s left in %s", e.Name(), dir)
		}
	}
}
