package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/wal"
)

// Recovery decodes records on one goroutine while another applies
// them. These tests hold it to the sequential contract: the store, the
// ingest observer's calls, the counts and the error are those of
// calling ApplyRecord on each record of the log in turn.

// observed is one ingest-observer call: the collection, the record's
// LSN and the batch length.
type observed struct {
	col      string
	lsn      uint64
	batchLen int
}

// recordingStore returns a store whose ingest observer on each of cols
// appends its calls to *calls.
func recordingStore(calls *[]observed, cols ...string) *Store {
	s := NewStore()
	for _, col := range cols {
		s.SetIngestObserver(col, func(lsn uint64, b Batch) {
			*calls = append(*calls, observed{col, lsn, b.Len()})
		})
	}
	return s
}

// logRecords reads every record of the log in dir straight from its
// segment files, in LSN order.
func logRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var recs []wal.Record
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			rec, sz, err := wal.DecodeRecord(data[off:])
			if err != nil {
				t.Fatalf("%s at %d: %v", path, off, err)
			}
			rec.Payload = bytes.Clone(rec.Payload)
			recs = append(recs, rec)
			off += sz
		}
	}
	return recs
}

// writeRandomLog journals a seeded random program of every mutation
// kind to a fresh log in dir: inserts, insert-manys of 1–500
// documents, updates, unsets and deletes of live and of missing ids,
// drops and ensure-indexes, over two collections.
func writeRandomLog(t *testing.T, dir string, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Small segments: recovery crosses from sealed segments to the
	// active one several times.
	w := openWAL(t, dir, wal.Options{Policy: wal.FsyncNone, SegmentBytes: 256 << 10})
	s := NewStore()
	AttachWAL(s, w)
	cols := []string{"obs", "users"}
	fields := []string{"zone", "spl", "mode", "at", "tags", "ok", "n"}
	doc := func() Doc {
		d := Doc{"zone": fmt.Sprintf("Z%d", rng.Intn(12))}
		for _, f := range fields[1:] {
			if rng.Intn(3) == 0 {
				continue
			}
			switch f {
			case "spl":
				d[f] = 30 + rng.Float64()*60
			case "mode":
				d[f] = []string{"manual", "journey", "background"}[rng.Intn(3)]
			case "at":
				d[f] = time.Unix(1_600_000_000+rng.Int63n(1e6), 0).UTC()
			case "tags":
				d[f] = []any{"a", rng.Intn(5)}
			case "ok":
				d[f] = rng.Intn(2) == 0
			case "n":
				d[f] = rng.Intn(1000)
			}
		}
		return d
	}
	var ids []string
	someID := func() string {
		if len(ids) == 0 || rng.Intn(8) == 0 {
			return "missing"
		}
		return ids[rng.Intn(len(ids))]
	}
	for i := 0; i < steps; i++ {
		c := s.Collection(cols[rng.Intn(len(cols))])
		switch op := rng.Intn(100); {
		case op < 35:
			id, err := c.Insert(doc())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		case op < 45:
			docs := make([]Doc, 1+rng.Intn(500))
			for i := range docs {
				docs[i] = doc()
			}
			got, err := c.InsertMany(docs)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, got...)
		case op < 65:
			_ = c.Update(someID(), Doc{"spl": rng.Float64() * 100, "reviewed": true}) // a missing id logs nothing
		case op < 75:
			_ = c.Unset(someID(), fields[1+rng.Intn(len(fields)-1)])
		case op < 90:
			_ = c.Delete(someID())
		case op < 93:
			s.drop(c.name)
		default:
			c.EnsureIndex(fields[rng.Intn(len(fields))])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWALMatchesApplyLoop recovers seeded random logs, and the
// committed legacy-gob fixture (a gob snapshot and gob records), with
// RecoverWAL and with a loop of ApplyRecord over the same records, at
// GOMAXPROCS 1 and 2. The two stores must snapshot to the same bytes,
// the observer must see the same (LSN, batch length) calls in the same
// order, and the record and format counts must agree.
func TestRecoverWALMatchesApplyLoop(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 100
	}
	type source struct {
		name     string
		dir      string
		snapshot string // "" for a log without one
	}
	var sources []source
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		writeRandomLog(t, dir, seed, steps)
		sources = append(sources, source{name: fmt.Sprintf("seed=%d", seed), dir: dir})
	}
	fixture := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "legacy-gob", "data", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture data: %v, %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fixture, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sources = append(sources, source{name: "legacy-gob", dir: fixture, snapshot: filepath.Join(fixture, "snapshot.gob")})

	for _, procs := range []int{1, 2} {
		for _, src := range sources {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, src.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				load := func(s *Store) {
					if src.snapshot == "" {
						return
					}
					if err := s.LoadFile(src.snapshot); err != nil {
						t.Fatal(err)
					}
				}

				var wantCalls []observed
				want := recordingStore(&wantCalls, "obs", "users", "observations")
				load(want)
				recs := logRecords(t, src.dir)
				for _, r := range recs {
					if err := want.ApplyRecord(r.LSN, r.Type, r.Payload); err != nil {
						t.Fatalf("reference apply of lsn %d: %v", r.LSN, err)
					}
				}

				var gotCalls []observed
				got := recordingStore(&gotCalls, "obs", "users", "observations")
				load(got)
				w := openWAL(t, src.dir, wal.Options{})
				defer w.Close()
				rec, err := RecoverWAL(got, w)
				if err != nil {
					t.Fatal(err)
				}

				if rec.Records != len(recs) {
					t.Errorf("RecoverWAL replayed %d records, the log holds %d", rec.Records, len(recs))
				}
				if !reflect.DeepEqual(gotCalls, wantCalls) {
					t.Errorf("observer calls differ: RecoverWAL made %d, the ApplyRecord loop %d", len(gotCalls), len(wantCalls))
				}
				if g, w := got.FormatStats(), want.FormatStats(); g != w {
					t.Errorf("format counts = %+v, want %+v", g, w)
				}
				if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
					t.Error("the recovered store's snapshot differs from the ApplyRecord loop's")
				}
				if len(wantCalls) == 0 {
					t.Error("the log fed the observer nothing: too small to say anything")
				}
			})
		}
	}
}

// TestRecoverWALErrorParity puts up to three failures in one log — a
// record that fails to apply (an insert without its id) at LSN 2, a
// payload that fails to decode at LSN 4, and a damaged record in a
// sealed segment at LSN 9 — and recovers it with the earlier ones
// repaired in turn. Every time, the first failure in LSN order is the
// one returned, with the text a loop of ApplyRecord gives; the records
// before it are applied and observed, none after it; and no goroutine
// outlives the recovery. Each record is padded past the size of one
// reader handoff, so a reader that outran a failed apply would be
// blocked, not finished, if nothing stopped it.
func TestRecoverWALErrorParity(t *testing.T) {
	const applyBad, decodeBad, corruptAt, last = 2, 4, 9, 11
	pad := strings.Repeat("x", 40<<10)
	good := func(lsn uint64) []byte {
		id := fmt.Sprintf("r%d", lsn)
		p, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "obs", ID: id, Doc: Doc{IDField: id, "v": int(lsn), "pad": pad}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noID, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "obs", ID: "r2", Doc: Doc{"v": 2, "pad": pad}})
	if err != nil {
		t.Fatal(err)
	}
	truncated := good(decodeBad)
	truncated = truncated[:len(truncated)/2]

	// writeLog lays LSNs 1–6 in one sealed segment, 7–10 in a second
	// and 11 in the active one, damages LSN 9's frame and returns the
	// damaged segment and the frame's offset.
	writeLog := func(dir string, payload func(lsn uint64) []byte) (string, int64) {
		w := openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
		for lsn := uint64(1); lsn <= last; lsn++ {
			tk, err := w.Append(byte(OpInsert), payload(lsn))
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if lsn == 6 || lsn == 10 {
				if _, err := w.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, fmt.Sprintf("%016x.wal", 7))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for lsn := 7; lsn < corruptAt; lsn++ {
			_, sz, err := wal.DecodeRecord(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += sz
		}
		_, sz, err := wal.DecodeRecord(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		data[off+sz-1] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return seg, int64(off)
	}

	for _, tc := range []struct {
		name     string
		failures []int // the LSNs that carry a failure, the first one returned
	}{
		{"apply-then-decode-then-corrupt", []int{applyBad, decodeBad, corruptAt}},
		{"apply-then-corrupt", []int{applyBad, corruptAt}},
		{"decode-then-corrupt", []int{decodeBad, corruptAt}},
		{"corrupt", []int{corruptAt}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := func(lsn uint64) []byte {
				for _, f := range tc.failures {
					switch {
					case int(lsn) != f:
					case f == applyBad:
						return noID
					case f == decodeBad:
						return truncated
					}
				}
				return good(lsn)
			}
			dir := t.TempDir()
			seg, off := writeLog(dir, payload)
			first := tc.failures[0]

			var calls []observed
			s := recordingStore(&calls, "obs")
			w := openWAL(t, dir, wal.Options{})
			defer w.Close()
			base := runtime.NumGoroutine()
			rec, err := RecoverWAL(s, w)

			if first == corruptAt {
				var ce *wal.CorruptionError
				if !errors.As(err, &ce) || ce.Segment != seg || ce.Offset != off || ce.LastLSN != corruptAt-1 {
					t.Fatalf("RecoverWAL = %v, want a *wal.CorruptionError at %s offset %d after lsn %d", err, seg, off, corruptAt-1)
				}
			} else {
				wantErr := fmt.Errorf("lsn %d: %w", first, NewStore().ApplyRecord(uint64(first), byte(OpInsert), payload(uint64(first))))
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("RecoverWAL = %v, want %v", err, wantErr)
				}
			}

			applied := first - 1
			var wantCalls []observed
			for lsn := 1; lsn <= applied; lsn++ {
				wantCalls = append(wantCalls, observed{"obs", uint64(lsn), 1})
			}
			if !reflect.DeepEqual(calls, wantCalls) {
				t.Errorf("observer saw %v, want LSNs 1–%d only", calls, applied)
			}
			if n := s.Collection("obs").Stats().Docs; n != applied {
				t.Errorf("store holds %d documents, want %d", n, applied)
			}
			if rec.Records != applied {
				t.Errorf("WALRecovery.Records = %d, want %d", rec.Records, applied)
			}
			// ApplyRecord counts a record once it decodes, even if it then
			// fails to apply.
			decoded := applied
			if first == applyBad {
				decoded++
			}
			if fs := s.FormatStats(); fs.DecodedBin != uint64(decoded) || fs.DecodedGob != 0 {
				t.Errorf("format counts = %+v, want %d binary records", fs, decoded)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after recovery, %d before", n, base)
			}
		})
	}
}

// TestReplayDurationCoversApply recovers a log into a store whose
// ingest observer sleeps 1 ms per batch: the replay time the log
// reports (wal_replay_seconds, the server's "replayed N records in"
// line) must cover every apply, not stop when the last record is read.
func TestReplayDurationCoversApply(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	w := openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
	live := NewStore()
	AttachWAL(live, w)
	for i := 0; i < n; i++ {
		if _, err := live.Collection("obs").Insert(Doc{"v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	var slept time.Duration
	s.SetIngestObserver("obs", func(uint64, Batch) {
		start := time.Now()
		time.Sleep(time.Millisecond)
		slept += time.Since(start)
	})
	w2 := openWAL(t, dir, wal.Options{})
	defer w2.Close()
	rec, err := RecoverWAL(s, w2)
	if err != nil {
		t.Fatal(err)
	}
	st := w2.Stats()
	if st.ReplayedRecords != n || rec.Records != n {
		t.Fatalf("replayed %d records (RecoverWAL says %d), want %d", st.ReplayedRecords, rec.Records, n)
	}
	if st.ReplayDuration < slept {
		t.Errorf("the log reports a replay of %v; its observer alone slept %v", st.ReplayDuration, slept)
	}
	if rec.Duration < slept {
		t.Errorf("RecoverWAL reports %v; its observer alone slept %v", rec.Duration, slept)
	}
}
