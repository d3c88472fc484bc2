package wal

import (
	"os"
	"path/filepath"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("fresh dir: got ok=%v err=%v, want absent", ok, err)
	}
	want := Manifest{Term: 7, VotedFor: "replica-2", Led: true}
	if err := SaveManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Overwrite is atomic: a second save replaces the first.
	want2 := Manifest{Term: 9}
	if err := SaveManifest(dir, want2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ = LoadManifest(dir); got != want2 {
		t.Fatalf("after overwrite: got %+v, want %+v", got, want2)
	}
}

func TestManifestDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := SaveManifest(dir, Manifest{Term: 3, VotedFor: "a"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupted manifest loaded without error")
	}
}

func TestResetRestartsNumbering(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.log(1, []byte("payload payload payload")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Segments < 2 {
		t.Fatalf("want multiple segments before reset, got %d", w.Stats().Segments)
	}

	if err := w.Reset(101); err != nil {
		t.Fatal(err)
	}
	if got := w.LastLSN(); got != 100 {
		t.Fatalf("LastLSN after Reset(101) = %d, want 100", got)
	}
	if got := w.DurableLSN(); got != 100 {
		t.Fatalf("DurableLSN after Reset(101) = %d, want 100", got)
	}
	if got := w.Stats().Segments; got != 1 {
		t.Fatalf("segments after reset = %d, want 1", got)
	}
	lsn, err := w.log(1, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 101 {
		t.Fatalf("first append after Reset(101) got lsn %d, want 101", lsn)
	}

	// The reset survives reopen: numbering continues from the snapshot
	// watermark, not from the deleted history.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed []uint64
	if err := Replay(w2, skipRecord, func(lsn uint64, _ struct{}) error {
		replayed = append(replayed, lsn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0] != 101 {
		t.Fatalf("replay after reset = %v, want [101]", replayed)
	}
}
