//go:build ignore

// gen writes the legacy-gob fixture: a data directory as a server
// whose docstore still gob-encoded WAL records and snapshots left it
// after a crash. It must be run from a tree at or before commit
// aa32aa5 (the last one whose encoder is gob) — at any later commit it
// would write the format the fixture exists to be older than:
//
//	go run internal/docstore/testdata/legacy-gob/gen.go
//
// It leaves, next to itself,
//
//	data/snapshot.gob       the checkpoint taken mid-way (gob)
//	data/snapshot.gob.lsn   the LSN that checkpoint covers
//	data/<lsn>.wal          one segment: every mutation op logged after
//	                        the checkpoint, every value kind (gob)
//	golden.json             the live store's typed dump at the crash
//
// and refuses to finish unless the tree that wrote the files also
// recovers them to golden.json.
package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

type colDump struct {
	Name     string           `json:"name"`
	Indexes  int              `json:"indexes"`
	Inserted uint64           `json:"inserted"`
	Updated  uint64           `json:"updated"`
	Docs     []map[string]any `json:"docs"`
}

// typed renders a document value with its dynamic type spelled out, so
// the JSON golden tells int from int64 from float64 and keeps a time's
// zone offset. fixture_test.go holds the same function.
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

func dump(s *docstore.Store) []byte {
	var cols []colDump
	for _, name := range s.Collections() {
		c := s.Collection(name)
		docs, err := c.Find(nil, docstore.FindOptions{})
		if err != nil {
			log.Fatal(err)
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
		log.Fatal(err)
	}
	return append(out, '\n')
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func open(dir string) *storage.Local {
	l, err := storage.OpenLocal(storage.LocalOptions{WALDir: dir, Policy: wal.FsyncGrouped})
	must(err)
	return l
}

func main() {
	here := filepath.Join("internal", "docstore", "testdata", "legacy-gob")
	if _, err := os.Stat(filepath.Join(here, "gen.go")); err != nil {
		log.Fatal("run from the repository root")
	}
	dir := filepath.Join(here, "data")
	must(os.RemoveAll(dir))

	paris := time.FixedZone("CEST", 2*3600)
	sensed := time.Date(2016, 6, 21, 18, 30, 15, 123456789, paris)
	utc := time.Date(2016, 6, 21, 16, 30, 16, 0, time.UTC)

	l := open(dir)
	obs := "observations"

	// Before the checkpoint: what the snapshot will hold.
	l.EnsureIndex(obs, "zone")
	for i := 0; i < 3; i++ {
		_, err := l.Insert(obs, storage.Doc{
			"_id": fmt.Sprintf("pre-%d", i), "zone": fmt.Sprintf("FR7510%d", i%2), "spl": 55.5 + float64(i),
			"sensedAt": sensed.Add(time.Duration(i) * time.Minute), "receivedAt": utc, "localized": i%2 == 0,
			"seq": i, "big": int64(1) << 40, "loc": map[string]any{"lat": 48.85, "lon": 2.35, "tags": []any{"a", i}},
		})
		must(err)
	}
	_, err := l.InsertMany(obs, []storage.Doc{ // auto ids d1, d2
		{"zone": "FR75101", "spl": 61.0, "seq": 10},
		{"zone": "FR75102", "spl": 62.25, "seq": 11, "raw": []byte{0, 1, 2, 0xff}},
	})
	must(err)
	must(l.Update(obs, "pre-1", storage.Doc{"spl": 70.0, "reviewed": true}))
	must(l.Delete(obs, "pre-0"))
	_, err = l.Insert("calibration", storage.Doc{"_id": "cal-1", "model": "Nexus 5", "biasDb": -3.5, "updatedAt": utc})
	must(err)

	must(l.Checkpoint())

	// After the checkpoint: the log tail, one record of every op, every
	// value kind the store documents.
	l.EnsureIndex(obs, "kind")
	_, err = l.Insert(obs, storage.Doc{
		"_id": "kinds", "kind": "all", "zone": "FR75101",
		"nil": nil, "true": true, "false": false,
		"int": -42, "int64": int64(-1) << 50, "float64": 3.0, "float-frac": -0.125,
		"string": "héllo", "empty-string": "", "bytes": []byte("\x00raw\xff"), "empty-bytes": []byte{},
		"time-paris": sensed, "time-utc": utc, "time-zero": time.Time{},
		"map":       map[string]any{"nested": map[string]any{"deep": []any{1, int64(2), 3.0, "four", nil, false}}, "n": 1},
		"slice":     []any{map[string]any{"k": "v"}, []any{}, map[string]any{}, sensed},
		"empty-map": map[string]any{}, "empty-slice": []any{},
	})
	must(err)
	_, err = l.InsertMany(obs, []storage.Doc{
		{"_id": "many-0", "kind": "batch", "zone": "FR75100", "spl": 40.0, "sensedAt": sensed, "seq": 20},
		{"kind": "batch", "zone": "FR75100", "spl": 41.5, "sensedAt": sensed.Add(time.Second), "seq": 21}, // auto id d3
		{"_id": "many-2", "kind": "batch", "zone": "FR75101", "spl": 43.0, "sensedAt": sensed.Add(2 * time.Second), "seq": int64(22)},
	})
	must(err)
	must(l.Update(obs, "pre-2", storage.Doc{"zone": "FR75109", "kind": "moved", "loc": map[string]any{"lat": 48.9, "lon": 2.4}}))
	must(l.Update(obs, "d1", storage.Doc{"seq": int64(10), "note": "retyped"}))
	must(l.Unset(obs, "pre-1", "reviewed", "big"))
	must(l.Delete(obs, "many-0"))
	_, err = l.Insert("scratch", storage.Doc{"_id": "tmp", "n": 1})
	must(err)
	l.Store().Drop("scratch")
	_, err = l.Insert("calibration", storage.Doc{"_id": "cal-2", "model": "Galaxy S4", "biasDb": 1.25, "updatedAt": sensed})
	must(err)

	golden := dump(l.Store())
	// The crash: the log is closed (every record above was fsynced
	// before its call returned) and no checkpoint follows.
	must(l.Close())

	re := open(dir)
	if got := dump(re.Store()); string(got) != string(golden) {
		log.Fatalf("this tree does not recover its own files to the live state:\n%s\nwant\n%s", got, golden)
	}
	records, _ := re.ReplayInfo()
	must(re.Close())
	must(os.WriteFile(filepath.Join(here, "golden.json"), golden, 0o644))

	entries, err := os.ReadDir(dir)
	must(err)
	for _, e := range entries {
		info, err := e.Info()
		must(err)
		fmt.Printf("%s\t%d bytes\n", e.Name(), info.Size())
	}
	fmt.Printf("replayed %d records over the snapshot\n", records)
}
