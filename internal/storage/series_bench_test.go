package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/wal"
)

// Companion benchmarks to internal/series: the docstore full-scan
// baseline the series view replaces, and the ingest overhead the
// series observer adds to the document write path.

func benchZones(n int) []string {
	zs := make([]string, n)
	for i := range zs {
		zs[i] = fmt.Sprintf("FR75%03d", i+1)
	}
	return zs
}

// BenchmarkNoiseDocScan is the before-picture: answer a one-hour
// one-zone noise query by scanning the observations collection, the
// way the analytics endpoints work without -series. Cost is linear in
// collection size — extrapolate per-document cost for larger stores.
func BenchmarkNoiseDocScan(b *testing.B) {
	const spread = 7 * 24 * time.Hour
	zones := benchZones(64)
	for _, n := range []int{100_000, 1_000_000} {
		l := NewLocal(docstore.NewStore())
		docs := genObsDocs(11, n, spread, zones)
		for off := 0; off < len(docs); off += 10_000 {
			end := off + 10_000
			if end > len(docs) {
				end = len(docs)
			}
			if _, err := l.InsertMany("observations", docs[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		lo := recBase.Add(72 * time.Hour)
		hi := lo.Add(time.Hour)
		filter := Doc{
			"zone":     "FR75001",
			"sensedAt": Doc{"$gte": lo, "$lt": hi},
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matched, err := l.FindContext(context.Background(), "observations", filter, docstore.FindOptions{})
				if err != nil {
					b.Fatal(err)
				}
				var agg series.Agg
				for _, d := range matched {
					if p, ok := series.PointFromObservation(d); ok {
						agg.Add(series.Quantize(p.Value))
					}
				}
				if agg.Count == 0 {
					b.Fatal("empty window")
				}
			}
		})
	}
}

// BenchmarkObservationIngest prices the series observer on the
// document write path: the same inserts with and without a series
// view attached, over the volatile store and over the WAL-backed
// engine the series actually deploys with. The series=true/false
// delta is the rollup + chunk-encode cost per accepted observation.
// Run with a fixed -benchtime=Nx: insert cost grows with collection
// size, so arms must insert identical document counts to compare.
func BenchmarkObservationIngest(b *testing.B) {
	zones := benchZones(64)
	for _, cfg := range []struct {
		name       string
		withWAL    bool
		withSeries bool
	}{
		{"wal=off/series=false", false, false},
		{"wal=off/series=true", false, true},
		{"wal=none/series=false", true, false},
		{"wal=none/series=true", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := LocalOptions{Policy: wal.FsyncNone}
			if cfg.withWAL {
				opts.WALDir = b.TempDir()
			}
			if cfg.withSeries {
				opts.Series = &SeriesOptions{Options: series.Options{RollupBucket: 5 * time.Minute}}
			}
			l, err := OpenLocal(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rng := rand.New(rand.NewSource(23))
			ms := (7 * 24 * time.Hour).Milliseconds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc := Doc{
					"sensedAt": recBase.Add(time.Duration(rng.Int63n(ms)) * time.Millisecond),
					"spl":      20 + rng.Float64()*90,
					"zone":     zones[rng.Intn(len(zones))],
					"userId":   "anon",
				}
				if _, err := l.Insert("observations", doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
