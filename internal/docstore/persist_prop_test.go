package docstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/wal"
)

// Seeded property test: any store the generator can produce must
// survive a snapshot round trip and a WAL round trip bit-exactly —
// documents, insertion order, and index definitions. Failures
// reproduce from the seed in the subtest name.

// genValue draws one random document value covering every kind the
// store persists, including nested composites (which may be empty).
func genValue(rng *rand.Rand, depth int) any {
	kinds := 11
	if depth >= 2 {
		kinds = 9 // cap nesting
	}
	switch rng.Intn(kinds) {
	case 0:
		return fmt.Sprintf("s%d", rng.Intn(1000))
	case 1:
		return rng.NormFloat64() * 50
	case 2:
		return rng.Intn(2) == 0
	case 3:
		return time.Unix(1_450_000_000+int64(rng.Intn(10_000_000)), 0).UTC()
	case 4:
		return rng.Intn(2000) - 1000
	case 5:
		return rng.Int63() - 1<<62
	case 6:
		b := make([]byte, rng.Intn(5))
		rng.Read(b)
		return b
	case 7:
		return nil
	case 8:
		return time.Unix(1_450_000_000+int64(rng.Intn(10_000_000)), int64(rng.Intn(1e9))).In(time.FixedZone("", 2*3600))
	case 9:
		n := rng.Intn(3)
		m := map[string]any{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%d", i)] = genValue(rng, depth+1)
		}
		return m
	default:
		n := rng.Intn(3)
		s := make([]any, 0, n)
		for i := 0; i < n; i++ {
			s = append(s, genValue(rng, depth+1))
		}
		return s
	}
}

// genStore builds a random store: 1-3 collections, each with random
// docs (some explicit ids, some auto), random deletions to perforate
// the insertion order, and random indexes.
func genStore(t *testing.T, rng *rand.Rand) *Store {
	t.Helper()
	s := NewStore()
	genInto(t, rng, s)
	return s
}

// genInto is genStore over a store the caller prepared (say, with a
// commit log attached).
func genInto(t *testing.T, rng *rand.Rand, s *Store) {
	t.Helper()
	fields := []string{"model", "spl", "zone", "ok"}
	for ci, cols := 0, 1+rng.Intn(3); ci < cols; ci++ {
		c := s.Collection(fmt.Sprintf("col%d", ci))
		for _, f := range fields {
			if rng.Intn(3) == 0 {
				c.EnsureIndex(f)
			}
		}
		var ids []string
		for di, docs := 0, rng.Intn(40); di < docs; di++ {
			doc := Doc{}
			if rng.Intn(4) == 0 {
				doc["_id"] = fmt.Sprintf("ext-%d-%d", ci, di)
			}
			for _, f := range fields[:1+rng.Intn(len(fields))] {
				doc[f] = genValue(rng, 0)
			}
			id, err := c.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if rng.Intn(8) == 0 {
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// snapshotBytes is the store's snapshot file as a byte slice.
func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertStoresDeepEqual compares collections, docs, insertion order and
// index behaviour of two stores.
func assertStoresDeepEqual(t *testing.T, want, got *Store) {
	t.Helper()
	wcols, gcols := want.Collections(), got.Collections()
	if !reflect.DeepEqual(wcols, gcols) {
		t.Fatalf("collections %v != %v", gcols, wcols)
	}
	for _, name := range wcols {
		wc, gc := want.Collection(name), got.Collection(name)
		wdocs, err := wc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gdocs, err := gc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(wdocs) != len(gdocs) {
			t.Fatalf("collection %s: %d docs != %d docs", name, len(gdocs), len(wdocs))
		}
		for i := range wdocs {
			if !reflect.DeepEqual(wdocs[i], gdocs[i]) {
				t.Fatalf("collection %s doc %d:\nwant %#v\ngot  %#v", name, i, wdocs[i], gdocs[i])
			}
		}
		if ws, gs := wc.Stats(), gc.Stats(); ws.Docs != gs.Docs || ws.Indexes != gs.Indexes {
			t.Fatalf("collection %s stats: want %+v, got %+v", name, ws, gs)
		}
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := genStore(t, rng)
			path := filepath.Join(t.TempDir(), "snap.gob")
			if err := s.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			restored := NewStore()
			if err := restored.LoadFile(path); err != nil {
				t.Fatal(err)
			}
			assertStoresDeepEqual(t, s, restored)
			// Equal stores are equal bytes: nothing in the file depends
			// on map iteration order or on which process wrote it.
			if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, restored)) {
				t.Fatal("snapshot of the restored store differs from the snapshot it was restored from")
			}
		})
	}
}

// TestWALRoundTripProperty is the same property through the log: a
// store recovered from the WAL records of a generated history is the
// store that wrote them, and snapshots to the same bytes.
func TestWALRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			w := openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
			s := NewStore()
			AttachWAL(s, w)
			genInto(t, rand.New(rand.NewSource(seed)), s)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := openWAL(t, dir, wal.Options{})
			defer w2.Close()
			recovered := NewStore()
			if _, err := RecoverWAL(recovered, w2); err != nil {
				t.Fatal(err)
			}
			assertStoresDeepEqual(t, s, recovered)
			if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, recovered)) {
				t.Fatal("snapshot of the recovered store differs from the live store's")
			}
		})
	}
}

// TestSaveFileTornWriteKeepsPreviousSnapshot proves the crash-safety
// claim of SaveFile: a write that dies at any byte budget — first
// byte, mid-stream, one byte short — must return an error and leave
// the previous on-disk snapshot untouched and loadable.
func TestSaveFileTornWriteKeepsPreviousSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := genStore(t, rng)
	// Ensure at least one doc so "before" is distinguishable.
	if _, err := s.Collection("col0").Insert(Doc{"model": "anchor", "spl": 61.5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the store so a successful overwrite would change the file.
	for i := 0; i < 25; i++ {
		if _, err := s.Collection("col0").Insert(Doc{"model": fmt.Sprintf("new-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Named by position (.5 = half the file, -1 = all but its last
	// byte), not by byte count: the file's length moves with the ids the
	// process has minted so far.
	budgets := []struct {
		name string
		n    int
	}{{"0", 0}, {"1", 1}, {".5", len(good) / 2}, {"-1", len(good) - 1}}
	for _, b := range budgets {
		budget := b.n
		t.Run("budget="+b.name, func(t *testing.T) {
			err := s.SaveFileVia(path, func(w io.Writer) io.Writer {
				return faults.NewWriter(w, budget)
			})
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("torn save returned %v, want ErrInjected", err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(onDisk) != string(good) {
				t.Fatalf("torn write corrupted the previous snapshot (%d bytes vs %d)", len(onDisk), len(good))
			}
			check := NewStore()
			if err := check.LoadFile(path); err != nil {
				t.Fatalf("previous snapshot unreadable after torn write: %v", err)
			}
			if _, err := check.Collection("col0").findOne(Doc{"model": "anchor"}); err != nil {
				t.Fatalf("previous snapshot lost data: %v", err)
			}
			// No temp-file debris accumulates.
			debris, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".docstore-*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if len(debris) != 0 {
				t.Fatalf("torn save left temp files behind: %v", debris)
			}
		})
	}

	// A subsequent healthy save still lands atomically.
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	after := NewStore()
	if err := after.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	n, err := after.Collection("col0").CountContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Collection("col0").CountContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("healthy save after torn writes lost docs: %d != %d", n, want)
	}
}
