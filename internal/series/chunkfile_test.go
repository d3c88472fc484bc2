package series

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// legacyFixture is a checkpoint written by the last tree whose chunks
// interleaved every zone in one stream; testdata/legacy-interleaved/gen.go
// wrote it and its golden.json.
const legacyFixture = "testdata/legacy-interleaved"

// fixtureGolden is golden.json; gen.go declares the same shape.
type fixtureGolden struct {
	ChunkWindowMs  int64 `json:"chunkWindowMs"`
	RollupBucketMs int64 `json:"rollupBucketMs"`
	MaxChunkPoints int   `json:"maxChunkPoints"`
	Zone           []struct {
		Zone string `json:"zone"`
		From int64  `json:"from"`
		To   int64  `json:"to"`
		Agg  Agg    `json:"agg"`
	} `json:"zone"`
	Noisemap []struct {
		From  int64          `json:"from"`
		To    int64          `json:"to"`
		Zones map[string]Agg `json:"zones"`
	} `json:"noisemap"`
}

// copyFixture copies the fixture's data directory to a fresh one.
func copyFixture(t *testing.T) string {
	t.Helper()
	src, dst := filepath.Join(legacyFixture, "data"), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestLegacyInterleavedFixture opens a checkpoint the parent layout
// wrote and requires its golden answers bit for bit: as read (every
// chunk converted to runs at Open), after a checkpoint rewrote the
// chunk files in the run layout and a reopen, and with the rollups
// file gone so the rollups are rebuilt from the converted chunks.
func TestLegacyInterleavedFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(legacyFixture, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g fixtureGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Zone) == 0 || len(g.Noisemap) == 0 {
		t.Fatal("empty golden")
	}
	opts := func(dir string) Options {
		return Options{
			Dir:            dir,
			chunkWindow:    time.Duration(g.ChunkWindowMs) * time.Millisecond,
			RollupBucket:   time.Duration(g.RollupBucketMs) * time.Millisecond,
			MaxChunkPoints: g.MaxChunkPoints,
		}
	}
	check := func(label string, db *DB) {
		t.Helper()
		ctx := context.Background()
		for _, q := range g.Zone {
			got, err := db.ZoneAggregate(ctx, q.Zone, time.UnixMilli(q.From), time.UnixMilli(q.To))
			if err != nil {
				t.Fatal(err)
			}
			if got != q.Agg {
				t.Fatalf("%s: zone %q [%d, %d):\nwant %+v\n got %+v", label, q.Zone, q.From, q.To, q.Agg, got)
			}
		}
		for _, q := range g.Noisemap {
			got, err := db.Noisemap(ctx, time.UnixMilli(q.From), time.UnixMilli(q.To))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, q.Zones) {
				t.Fatalf("%s: noisemap [%d, %d):\nwant %+v\n got %+v", label, q.From, q.To, q.Zones, got)
			}
		}
	}
	chunkLayouts := func(dir string) (legacy, runs int) {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, chunksDir, "*.chk"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			body, err := readFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			_, old, err := decodeChunkFile(body)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if old {
				legacy++
			} else {
				runs++
			}
		}
		return legacy, runs
	}

	dir := copyFixture(t)
	if legacy, runs := chunkLayouts(dir); legacy == 0 || runs != 0 {
		t.Fatalf("fixture chunks: %d interleaved, %d in runs", legacy, runs)
	}
	db, err := Open(opts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().SealedChunks < 2*db.Stats().Partitions {
		t.Fatalf("want several sealed chunks per partition: %+v", db.Stats())
	}
	check("as read", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if legacy, runs := chunkLayouts(dir); legacy != 0 || runs == 0 {
		t.Fatalf("after a checkpoint: %d interleaved, %d in runs", legacy, runs)
	}
	re, err := Open(opts(dir))
	if err != nil {
		t.Fatal(err)
	}
	check("rewritten", re)

	dir = copyFixture(t)
	rollups, err := filepath.Glob(filepath.Join(dir, "rollups-*.gob"))
	if err != nil || len(rollups) != 1 {
		t.Fatalf("rollups file: %v, %v", rollups, err)
	}
	if err := os.Remove(rollups[0]); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Open(opts(dir))
	if err != nil {
		t.Fatal(err)
	}
	check("rollups rebuilt from converted chunks", rebuilt)
}

// FuzzChunkFile feeds arbitrary payloads to the chunk-file reader. It
// must never panic, and whatever it accepts — either layout — must
// decode every point it claims and re-encode to the same chunk.
func FuzzChunkFile(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(legacyFixture, "data", chunksDir, "*.chk"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("fixture chunks: %v, %v", paths, err)
	}
	for _, p := range paths {
		body, err := readFrame(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		ch, _, err := decodeChunkFile(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(gobBytes(f, ch.file()))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ch, _, err := decodeChunkFile(body)
		if err != nil {
			return
		}
		n := 0
		if err := ch.points(func(int64, float64, string) { n++ }); err != nil || n != ch.Count {
			t.Fatalf("accepted chunk decodes %d of %d points: %v", n, ch.Count, err)
		}
		again, legacy, err := decodeChunkFile(gobBytes(t, ch.file()))
		if err != nil || legacy {
			t.Fatalf("re-encoded chunk: legacy %v, %v", legacy, err)
		}
		if !reflect.DeepEqual(again, ch) {
			t.Fatalf("re-encoded chunk differs:\nwant %+v\n got %+v", ch, again)
		}
	})
}
