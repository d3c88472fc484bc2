package docstore

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

func seededStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	obs := s.Collection("observations")
	obs.EnsureIndex("model")
	now := time.Date(2016, 3, 1, 12, 0, 0, 0, time.UTC)
	docs := []Doc{
		{"model": "A", "spl": 61.5, "localized": true, "sensedAt": now},
		{"model": "B", "spl": 48.0, "localized": false, "sensedAt": now.Add(time.Hour),
			"tags": []any{"x", "y"}, "meta": map[string]any{"k": 1}},
	}
	if _, err := obs.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	journeys := s.Collection("journeys")
	if _, err := journeys.Insert(Doc{"owner": "anon-1", "points": 12}); err != nil {
		t.Fatal(err)
	}
	return s
}

func assertStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wantCols := want.Collections()
	gotCols := got.Collections()
	if len(wantCols) != len(gotCols) {
		t.Fatalf("collections %v vs %v", wantCols, gotCols)
	}
	for _, name := range wantCols {
		wc, gc := want.Collection(name), got.Collection(name)
		wDocs, err := wc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gDocs, err := gc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(wDocs) != len(gDocs) {
			t.Fatalf("%s: %d vs %d docs", name, len(wDocs), len(gDocs))
		}
		for i := range wDocs {
			for k, v := range wDocs[i] {
				gv := gDocs[i][k]
				if tv, ok := v.(time.Time); ok {
					gt, ok := gv.(time.Time)
					if !ok || !tv.Equal(gt) {
						t.Fatalf("%s doc %d field %s: %v vs %v", name, i, k, v, gv)
					}
					continue
				}
				switch v.(type) {
				case []any, map[string]any:
					// Compared structurally below via round-trip use.
					continue
				}
				if gv != v {
					t.Fatalf("%s doc %d field %s: %v vs %v", name, i, k, v, gv)
				}
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := seededStore(t)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, restored)
	// Nested values survive.
	d, err := restored.Collection("observations").findOne(Doc{"model": "B"})
	if err != nil {
		t.Fatal(err)
	}
	tags, ok := d["tags"].([]any)
	if !ok || len(tags) != 2 || tags[0] != "x" {
		t.Fatalf("tags = %v", d["tags"])
	}
	meta, ok := d["meta"].(map[string]any)
	if !ok || meta["k"] != 1 {
		t.Fatalf("meta = %v", d["meta"])
	}
}

func TestSnapshotRestoresIndexes(t *testing.T) {
	s := seededStore(t)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// The index works for lookups after restore.
	n, err := restored.Collection("observations").CountContext(context.Background(), Doc{"model": "A"})
	if err != nil || n != 1 {
		t.Fatalf("indexed count after restore = %d, %v", n, err)
	}
	if restored.Collection("observations").Stats().Indexes != 1 {
		t.Fatal("index definition lost in snapshot")
	}
}

func TestSnapshotFileSaveLoad(t *testing.T) {
	s := seededStore(t)
	path := filepath.Join(t.TempDir(), "store.snapshot")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, restored)
	// Restored store accepts new writes without id collisions.
	if _, err := restored.Collection("observations").Insert(Doc{"model": "C"}); err != nil {
		t.Fatalf("insert after restore: %v", err)
	}
}

func TestSnapshotLoadMissingFile(t *testing.T) {
	s := NewStore()
	if err := s.LoadFile(filepath.Join(t.TempDir(), "nope.snapshot")); err == nil {
		t.Fatal("loading a missing snapshot must fail")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	s := NewStore()
	if err := s.Restore(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage snapshot must fail")
	}
}

func TestSnapshotReplacesSameNamedCollections(t *testing.T) {
	s := seededStore(t)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	target := NewStore()
	if _, err := target.Collection("observations").Insert(Doc{"model": "STALE"}); err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := target.Collection("observations").CountContext(context.Background(), Doc{"model": "STALE"})
	if err != nil || n != 0 {
		t.Fatalf("stale docs survived restore: %d", n)
	}
}

func TestRestoreAdvancesIDCounter(t *testing.T) {
	// Simulate a cross-process restore: craft a snapshot whose
	// auto-assigned ids are far ahead of this process's counter, then
	// verify new inserts cannot collide.
	s := NewStore()
	far := "d" + "zzzz" // base36, far beyond any counter this test run reaches
	if _, err := s.Collection("c").Insert(Doc{IDField: far, "v": 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// Many fresh inserts; none may collide with the restored id.
	col := restored.Collection("c")
	for i := 0; i < 100; i++ {
		if _, err := col.Insert(Doc{"v": i}); err != nil {
			t.Fatalf("insert %d after restore collided: %v", i, err)
		}
	}
}
