package storage

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/wal"
)

// Read-old, proven on bytes the last gob-writing commit wrote: the
// fixture under ../docstore/testdata/legacy-gob is a crashed server's
// data directory (gob snapshot, its LSN sidecar, one gob WAL segment)
// plus the typed dump of the store that server held. gen.go, next to
// it, is the program that wrote it.

const legacyFixture = "../docstore/testdata/legacy-gob"

// copyLegacyFixture copies the fixture's data directory into a fresh
// temp dir, so tests can open — and append to — the same bytes.
func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(legacyFixture, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(legacyFixture, "data", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// typed renders a document value with its dynamic type spelled out;
// the same function as in the fixture's gen.go.
func typed(v any) any {
	switch t := v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool:" + strconv.FormatBool(t)
	case int:
		return "int:" + strconv.Itoa(t)
	case int64:
		return "int64:" + strconv.FormatInt(t, 10)
	case float64:
		return "float64:" + strconv.FormatFloat(t, 'g', -1, 64)
	case string:
		return "string:" + t
	case []byte:
		return "bytes:" + hex.EncodeToString(t)
	case time.Time:
		return "time:" + t.Format(time.RFC3339Nano)
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = typed(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = typed(e)
		}
		return out
	default:
		return fmt.Sprintf("unexpected %T", v)
	}
}

// typedDump is gen.go's dump: every collection with its counters and
// its documents in insertion order, values typed.
func typedDump(t *testing.T, s *docstore.Store) string {
	t.Helper()
	type colDump struct {
		Name     string           `json:"name"`
		Indexes  int              `json:"indexes"`
		Inserted uint64           `json:"inserted"`
		Updated  uint64           `json:"updated"`
		Docs     []map[string]any `json:"docs"`
	}
	var cols []colDump
	for _, name := range s.Collections() {
		c := s.Collection(name)
		docs, err := c.Find(nil, docstore.FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		cd := colDump{Name: name, Indexes: st.Indexes, Inserted: st.Inserted, Updated: st.Updated, Docs: []map[string]any{}}
		for _, d := range docs {
			cd.Docs = append(cd.Docs, typed(d).(map[string]any))
		}
		cols = append(cols, cd)
	}
	out, err := json.MarshalIndent(cols, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

func openFixture(t *testing.T, dir string) *Local {
	t.Helper()
	l, err := OpenLocal(LocalOptions{WALDir: dir, Policy: wal.FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// walFormats counts the records left in dir's segments by payload
// format: gob payloads start with a non-zero length byte, the document
// codec's with 0x00.
func walFormats(t *testing.T, dir string) (gob, bin int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			rec, n, err := wal.DecodeRecord(data)
			if err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			if rec.Payload[0] == 0 {
				bin++
			} else {
				gob++
			}
			data = data[n:]
		}
	}
	return gob, bin
}

func TestLegacyGobFixtureRecovers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(legacyFixture, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyLegacyFixture(t)
	if gob, bin := walFormats(t, dir); gob != 10 || bin != 0 {
		t.Fatalf("fixture log holds %d gob + %d binary records, want 10 + 0", gob, bin)
	}
	l := openFixture(t, dir)
	defer l.Close()
	if got := typedDump(t, l.Store()); got != string(golden) {
		t.Fatalf("recovered store differs from golden.json:\n%s", got)
	}
	if lsn := l.CheckpointLSN(); lsn != 8 {
		t.Fatalf("checkpoint lsn = %d, want 8 (the sidecar)", lsn)
	}
	want := docstore.FormatStats{DecodedGob: 10, RestoredGob: 1}
	if fs := l.Store().FormatStats(); fs != want {
		t.Fatalf("format stats = %+v, want %+v", fs, want)
	}
	// Both indexes came back usable: the snapshot's and the one the log
	// tail created.
	reg := obs.NewRegistry()
	l.Store().Instrument(reg)
	queries := reg.CounterVec("docstore_queries_total", "", "collection", "index")
	for _, q := range []struct {
		filter Doc
		want   int
	}{{Doc{"zone": "FR75101"}, 4}, {Doc{"kind": "batch"}, 2}} {
		if docs, err := l.FindContext(context.Background(), "observations", q.filter, docstore.FindOptions{}); err != nil || len(docs) != q.want {
			t.Fatalf("find %v = %d docs, %v; want %d", q.filter, len(docs), err, q.want)
		}
	}
	if hit, miss := queries.With("observations", "hit").Value(), queries.With("observations", "miss").Value(); hit != 2 || miss != 0 {
		t.Fatalf("queries hit/miss = %d/%d, want 2/0", hit, miss)
	}
}

// TestLegacyGobLogWithBinaryTail appends to the fixture's own segment,
// crashes, and recovers a log whose head is gob and whose tail is the
// document codec; the first checkpoint then retires every legacy byte.
func TestLegacyGobLogWithBinaryTail(t *testing.T) {
	dir := copyLegacyFixture(t)
	l := openFixture(t, dir)
	paris := time.FixedZone("", 2*3600)
	if _, err := l.Insert("observations", Doc{"_id": "post-0", "zone": "FR75101", "kind": "new", "spl": 50.5,
		"sensedAt": time.Date(2016, 6, 22, 9, 0, 0, 5, paris), "seq": 30, "big": int64(7), "loc": Doc{"tags": []any{"x", 1, nil}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.InsertMany("observations", []Doc{{"zone": "FR75102", "spl": 51.0}, {"zone": "FR75102", "raw": []byte{9}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Update("observations", "kinds", Doc{"kind": "touched", "map": Doc{}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Unset("observations", "kinds", "slice"); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete("observations", "pre-1"); err != nil {
		t.Fatal(err)
	}
	l.EnsureIndex("calibration", "model")
	live := typedDump(t, l.Store())
	if err := l.Close(); err != nil { // the crash: no checkpoint
		t.Fatal(err)
	}
	if gob, bin := walFormats(t, dir); gob != 10 || bin != 6 {
		t.Fatalf("log holds %d gob + %d binary records, want 10 + 6", gob, bin)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(segs) != 1 {
		t.Fatalf("segments = %v, want the fixture's one", segs)
	}

	l = openFixture(t, dir)
	if got := typedDump(t, l.Store()); got != live {
		t.Fatalf("mixed log recovered to\n%s\nwant\n%s", got, live)
	}
	want := docstore.FormatStats{DecodedGob: 10, DecodedBin: 6, RestoredGob: 1}
	if fs := l.Store().FormatStats(); fs != want {
		t.Fatalf("format stats = %+v, want %+v", fs, want)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap, []byte("\x00gfsnap\x01")) {
		t.Fatalf("checkpoint wrote a snapshot starting %q, want the codec magic", snap[:8])
	}
	if gob, bin := walFormats(t, dir); gob != 0 || bin != 0 {
		t.Fatalf("after the checkpoint the log holds %d gob + %d binary records, want none", gob, bin)
	}

	l = openFixture(t, dir)
	defer l.Close()
	if got := typedDump(t, l.Store()); got != live {
		t.Fatalf("after checkpoint + reopen:\n%s\nwant\n%s", got, live)
	}
	want = docstore.FormatStats{RestoredBin: 1}
	if fs := l.Store().FormatStats(); fs != want {
		t.Fatalf("format stats = %+v, want %+v", fs, want)
	}
}
