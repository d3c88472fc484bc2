//go:build ignore

// gen writes the legacy-interleaved fixture: a series checkpoint as a
// tree whose chunks interleave every zone in one point stream (with a
// per-point index into the chunk's zone dictionary) left it. It must be
// run from a tree at commit 867f579, the last one with that encoder —
// at any later commit it would write the format the fixture exists to
// be older than:
//
//	go run internal/series/testdata/legacy-interleaved/gen.go
//
// It leaves, next to itself,
//
//	data/manifest.gob        the checkpoint's commit record
//	data/rollups-*.gob       the continuous aggregates
//	data/chunks/*.chk        the sealed chunks, several per partition
//	golden.json              the options, and zone and noisemap answers
//	                         over aligned and unaligned ranges
//
// and refuses to finish unless the tree that wrote the files also
// reopens them to golden.json.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/urbancivics/goflow/internal/series"
)

// golden is golden.json. Times are Unix milliseconds; encoding/json
// writes each float64 in the shortest form that parses back to the
// same bits, so the answers compare with ==.
type golden struct {
	ChunkWindowMs  int64        `json:"chunkWindowMs"`
	RollupBucketMs int64        `json:"rollupBucketMs"`
	MaxChunkPoints int          `json:"maxChunkPoints"`
	Zone           []zoneAnswer `json:"zone"`
	Noisemap       []mapAnswer  `json:"noisemap"`
}

type zoneAnswer struct {
	Zone string     `json:"zone"`
	From int64      `json:"from"`
	To   int64      `json:"to"`
	Agg  series.Agg `json:"agg"`
}

type mapAnswer struct {
	From  int64                 `json:"from"`
	To    int64                 `json:"to"`
	Zones map[string]series.Agg `json:"zones"`
}

var (
	base  = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	zones = []string{"FR75001", "FR75002", "FR75003", "FR75004", "FR75005", ""}
	opts  = series.Options{ChunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 97}
)

// ranges are the questions: aligned, unaligned inside one partition,
// unaligned across several, and wider than the data. None is shorter
// than two buckets while straddling a partition boundary — the parent
// added those two partitions' points in map order, so such an answer
// had two possible bit patterns.
func ranges() [][2]int64 {
	at := func(h, m, s int) int64 {
		return base.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(s)*time.Second).UnixMilli()
	}
	return [][2]int64{
		{at(1, 0, 0), at(2, 0, 0)},     // one aligned hour
		{at(1, 10, 0), at(3, 35, 0)},   // bucket-aligned, ragged windows
		{at(1, 1, 13), at(1, 3, 0)},    // inside one bucket
		{at(2, 7, 41), at(2, 48, 9)},   // unaligned, one partition
		{at(0, 17, 23), at(3, 41, 7)},  // unaligned, four partitions
		{at(3, 12, 44), at(4, 12, 44)}, // a trailing hour
		{at(-1, 0, 0), at(10, 0, 0)},   // wider than the data
		{at(-1, 0, 0), at(4, 59, 59)},  // wider on one side
		{at(0, 0, 0), at(0, 0, 1)},     // one second
	}
}

func answers(db *series.DB) golden {
	g := golden{
		ChunkWindowMs:  opts.ChunkWindow.Milliseconds(),
		RollupBucketMs: opts.RollupBucket.Milliseconds(),
		MaxChunkPoints: opts.MaxChunkPoints,
	}
	ctx := context.Background()
	for _, r := range ranges() {
		from, to := time.UnixMilli(r[0]), time.UnixMilli(r[1])
		for _, z := range zones {
			a, err := db.ZoneAggregate(ctx, z, from, to)
			must(err)
			g.Zone = append(g.Zone, zoneAnswer{Zone: z, From: r[0], To: r[1], Agg: a})
		}
		m, err := db.Noisemap(ctx, from, to)
		must(err)
		g.Noisemap = append(g.Noisemap, mapAnswer{From: r[0], To: r[1], Zones: m})
	}
	return g
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	here := filepath.Join("internal", "series", "testdata", "legacy-interleaved")
	if _, err := os.Stat(filepath.Join(here, "gen.go")); err != nil {
		log.Fatal("run from the repository root")
	}
	dir := filepath.Join(here, "data")
	must(os.RemoveAll(dir))
	o := opts
	o.Dir = dir
	db, err := series.Open(o)
	must(err)

	// An out-of-order stream over five hours: late points land in
	// partitions whose earlier chunks are already sealed.
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 3000; i++ {
		db.Append(uint64(i+1), series.Point{
			TS:    base.UnixMilli() + rng.Int63n((5 * time.Hour).Milliseconds()),
			Value: 20 + rng.Float64()*90,
			Zone:  zones[rng.Intn(len(zones))],
		})
	}
	must(db.Checkpoint())
	want := answers(db)

	re, err := series.Open(o)
	must(err)
	if got := answers(re); !reflect.DeepEqual(got, want) {
		log.Fatal("this tree does not reopen its own checkpoint to the same answers")
	}
	out, err := json.Marshal(want)
	must(err)
	must(os.WriteFile(filepath.Join(here, "golden.json"), append(out, '\n'), 0o644))

	st := re.Stats()
	fmt.Printf("%d points, %d partitions, %d sealed chunks, %d bytes\n", st.Points, st.Partitions, st.SealedChunks, st.SealedBytes)
}
