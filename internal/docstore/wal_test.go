package docstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/wal"
)

// openWAL opens a log in dir, failing the test on error.
func openWAL(t *testing.T, dir string, opt wal.Options) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// assertStoresIdentical compares two stores collection by collection:
// documents, insertion order, lifetime counters.
func assertStoresIdentical(t *testing.T, got, want *Store) {
	t.Helper()
	gotNames, wantNames := got.Collections(), want.Collections()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("collections = %v, want %v", gotNames, wantNames)
	}
	for _, name := range wantNames {
		gc, wc := got.Collection(name), want.Collection(name)
		gdocs, err := gc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wdocs, err := wc.Find(nil, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gdocs, wdocs) {
			t.Fatalf("collection %q: docs (in order) =\n%v\nwant\n%v", name, gdocs, wdocs)
		}
		gs, ws := gc.Stats(), wc.Stats()
		if gs.Inserted != ws.Inserted || gs.Updated != ws.Updated || gs.Docs != ws.Docs {
			t.Fatalf("collection %q: stats = %+v, want %+v", name, gs, ws)
		}
	}
}

// TestWALMutationRoundtrip drives every mutation type through a
// WAL-attached store, then recovers a fresh store from the log alone
// and checks it matches — documents, insertion order and counters.
func TestWALMutationRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, wal.Options{Policy: wal.FsyncGrouped})
	live := NewStore()
	AttachWAL(live, w)

	obs := live.Collection("observations")
	obs.EnsureIndex("place")
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := obs.Insert(Doc{"db": 40 + i, "place": fmt.Sprintf("place%d", i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := obs.InsertMany([]Doc{{"db": 90}, {"db": 91}, {"db": 92}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Update(ids[2], Doc{"db": 99, "reviewed": true}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Unset(ids[3], "place"); err != nil {
		t.Fatal(err)
	}
	if err := obs.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	users := live.Collection("users")
	if _, err := users.Insert(Doc{"name": "alice"}); err != nil {
		t.Fatal(err)
	}
	live.Collection("scratch")
	if _, err := live.Collection("scratch").Insert(Doc{"tmp": 1}); err != nil {
		t.Fatal(err)
	}
	live.drop("scratch")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from the log alone — no snapshot ever taken.
	w2 := openWAL(t, dir, wal.Options{})
	defer w2.Close()
	recovered := NewStore()
	rec, err := RecoverWAL(recovered, w2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records == 0 {
		t.Fatal("recovery replayed no records")
	}
	assertStoresIdentical(t, recovered, live)

	// The recovered store serves indexed queries like the original.
	AttachWAL(recovered, w2)
	got, err := recovered.Collection("observations").Find(Doc{"place": "place1"}, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := obs.Find(Doc{"place": "place1"}, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed find after recovery = %v, want %v", got, want)
	}
}

// TestWALKillRecover is the acceptance test for the durability
// contract: concurrent writers insert observations through a WAL whose
// write path tears at a seeded byte budget (the simulated crash), and
// after recovery every acknowledged insert must be present. Five+
// seeded fault schedules; each subtest reproduces from its seed name.
func TestWALKillRecover(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			w := openWAL(t, dir, wal.Options{
				Policy: wal.FsyncGrouped,
				WrapSegment: func(f io.Writer) io.Writer {
					return faults.NewSeededWriter(f, seed, 0, 64<<10)
				},
			})
			store := NewStore()
			AttachWAL(store, w)
			obs := store.Collection("observations")

			var mu sync.Mutex
			acked := make(map[string]int)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						db := g*1000 + i
						id, err := obs.Insert(Doc{"db": db})
						if err != nil {
							return // the crash: no ack, no durability claim
						}
						mu.Lock()
						acked[id] = db
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			_ = w.Close()

			w2 := openWAL(t, dir, wal.Options{})
			defer w2.Close()
			recovered := NewStore()
			if _, err := RecoverWAL(recovered, w2); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			robs := recovered.Collection("observations")
			for id, db := range acked {
				d, err := robs.Get(id)
				if err != nil {
					t.Fatalf("acknowledged observation %s lost: %v (%d acked)", id, err, len(acked))
				}
				if got, _ := d["db"].(int); got != db {
					t.Fatalf("observation %s recovered with db=%v, want %d", id, d["db"], db)
				}
			}
		})
	}
}

// TestCheckpointBoundsReplay runs the full checkpoint protocol — rotate,
// snapshot, truncate — and checks both halves of its contract: recovery
// from snapshot + log tail reproduces the store exactly, and the replay
// only covers records after the checkpoint.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.gob")
	w := openWAL(t, filepath.Join(dir, "wal"), wal.Options{Policy: wal.FsyncGrouped})
	live := NewStore()
	AttachWAL(live, w)
	obs := live.Collection("observations")
	obs.EnsureIndex("place")
	var ids []string
	for i := 0; i < 200; i++ {
		id, err := obs.Insert(Doc{"db": i, "place": fmt.Sprintf("p%d", i%5)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Checkpoint: everything below cut is now covered by the snapshot.
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if n, err := w.TruncateBefore(cut); err != nil || n == 0 {
		t.Fatalf("TruncateBefore removed %d segments, err %v", n, err)
	}

	// Post-checkpoint traffic: the only records recovery should replay.
	for i := 0; i < 30; i++ {
		if err := obs.Update(ids[i], Doc{"db": 1000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := obs.Delete(ids[50]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, filepath.Join(dir, "wal"), wal.Options{})
	defer w2.Close()
	recovered := NewStore()
	if err := recovered.LoadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverWAL(recovered, w2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records > 31 {
		t.Fatalf("replayed %d records after checkpoint, want <= 31 (log not truncated?)", rec.Records)
	}
	assertStoresIdentical(t, recovered, live)
}

// TestWALReplayIdempotent recovers from a snapshot taken WITHOUT
// truncating the log, so every snapshotted mutation is replayed again
// on top of its own effects. Convergence is the property the
// checkpoint protocol relies on, since snapshots are per-collection
// prefixes, not global cuts.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir, wal.Options{Policy: wal.FsyncGrouped})
	live := NewStore()
	AttachWAL(live, w)
	obs := live.Collection("observations")
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := obs.Insert(Doc{"db": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := obs.Update(ids[1], Doc{"db": 101}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := obs.Unset(ids[3], "db"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// More traffic after the snapshot, all still in the same log.
	if err := obs.Update(ids[4], Doc{"db": 104}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir, wal.Options{})
	defer w2.Close()
	recovered := NewStore()
	if err := recovered.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWAL(recovered, w2); err != nil {
		t.Fatal(err)
	}
	// Documents and order converge exactly. Lifetime stats counters are
	// compared via the looser helper: re-replaying a mutation the
	// snapshot already covers re-counts it (counters are diagnostics,
	// not data), which the checkpoint protocol keeps rare by truncating
	// the covered segments.
	assertStoresEqual(t, live, recovered)
}

// TestRecoverWALGuard: replaying into a store that would re-log every
// applied mutation must be refused.
func TestRecoverWALGuard(t *testing.T) {
	w := openWAL(t, t.TempDir(), wal.Options{})
	defer w.Close()
	s := NewStore()
	AttachWAL(s, w)
	if _, err := RecoverWAL(s, w); !errors.Is(err, ErrCommitLogAttached) {
		t.Fatalf("RecoverWAL on attached store = %v, want ErrCommitLogAttached", err)
	}
}

// TestWALFailureRejectsWrites: once the log fails (torn write), the
// store must stop acknowledging mutations. The batch in flight during
// the tear may remain applied in memory — in-memory state is allowed
// to run ahead of durable state; the error tells the caller the write
// is not durable — but every later mutation fails at the commit-log
// stage and is not applied at all.
func TestWALFailureRejectsWrites(t *testing.T) {
	w := openWAL(t, t.TempDir(), wal.Options{
		Policy:      wal.FsyncGrouped,
		WrapSegment: func(f io.Writer) io.Writer { return faults.NewWriter(f, 0) },
	})
	defer w.Close()
	s := NewStore()
	AttachWAL(s, w)
	obs := s.Collection("observations")
	if _, err := obs.Insert(Doc{"db": 1}); err == nil {
		t.Fatal("insert over torn log acknowledged")
	}
	before, err := obs.CountContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The log is failed closed now: later mutations are refused before
	// they are applied.
	if _, err := obs.Insert(Doc{"db": 2}); err == nil {
		t.Fatal("insert after sticky log failure acknowledged")
	}
	if after, err := obs.CountContext(context.Background(), nil); err != nil || after != before {
		t.Fatalf("doc count changed %d -> %d after refused insert (err %v)", before, after, err)
	}
}
