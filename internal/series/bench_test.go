package series

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The benchmark pair behind BENCH_series.json: the same one-hour zone
// window answered from the continuous rollups versus forced through
// the compressed chunks. The docstore full-scan baseline lives in
// internal/storage (it needs documents, not points). Beside them, the
// questions a dashboard actually asks: the whole city over an unaligned
// trailing day, on a quiet store and with a point landing in the
// current hour between reads, and one zone over the trailing hour to
// the second.

// benchFill appends n seeded points spread across zones and time.
func benchFill(db *DB, n int, spread time.Duration, zones int) {
	rng := rand.New(rand.NewSource(7))
	zs := make([]string, zones)
	for i := range zs {
		zs[i] = fmt.Sprintf("FR75%03d", i+1)
	}
	base := testBase.UnixMilli()
	ms := spread.Milliseconds()
	for i := 0; i < n; i++ {
		db.Append(uint64(i+1), Point{
			TS:    base + rng.Int63n(ms),
			Value: 20 + rng.Float64()*90,
			Zone:  zs[rng.Intn(len(zs))],
		})
	}
}

var benchSizes = []int{100_000, 1_000_000, 10_000_000}

func BenchmarkSeriesQuery(b *testing.B) {
	const spread = 7 * 24 * time.Hour
	lo := testBase.Add(72 * time.Hour)
	hi := lo.Add(time.Hour)
	dayHi := testBase.Add(96*time.Hour + 37*time.Minute + 11*time.Second)
	dayLo := dayHi.Add(-24 * time.Hour)
	hourLo := dayHi.Add(-time.Hour)
	for _, n := range benchSizes {
		// Rollup path: 5-minute buckets, the aligned window is pure
		// aggregate merging.
		db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute})
		benchFill(db, n, spread, 64)
		b.Run(fmt.Sprintf("n=%d/path=rollup", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.ZoneAggregate(context.Background(), "FR75001", lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/path=rollup-noisemap", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Noisemap(context.Background(), lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The dashboard's zone read: the trailing hour to the second, so
		// both ends are sub-bucket edges in different partitions.
		b.Run(fmt.Sprintf("n=%d/path=zone-hour-unaligned", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.ZoneAggregate(context.Background(), "FR75001", hourLo, dayHi); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The REST default: an unaligned trailing 24 h over every zone.
		b.Run(fmt.Sprintf("n=%d/path=rollup-noisemap-day", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Noisemap(context.Background(), dayLo, dayHi); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The same read while the city keeps reporting: one point lands
		// in the day's last whole hour before every read, so each read
		// pays for re-merging the one window ingest keeps dirtying.
		b.Run(fmt.Sprintf("n=%d/path=rollup-day-under-ingest", n), func(b *testing.B) {
			b.ReportAllocs()
			late := Point{TS: dayHi.Add(-time.Hour).UnixMilli(), Value: 61.5, Zone: "FR75001"}
			for i := 0; i < b.N; i++ {
				db.Append(uint64(n+i+1), late)
				if _, err := db.Noisemap(context.Background(), dayLo, dayHi); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Chunk path: a rollup bucket as wide as the whole spread means
		// no window ever covers one, so the same query runs entirely as
		// an edge scan — decode the overlapping chunks, sparse index
		// pruning the rest.
		ch := New(Options{chunkWindow: time.Hour, RollupBucket: spread})
		benchFill(ch, n, spread, 64)
		b.Run(fmt.Sprintf("n=%d/path=chunks", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ch.ZoneAggregate(context.Background(), "FR75001", lo, hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppend prices the ingest-side work: chunk encoding plus
// rollup maintenance per observation, into one zone and spread over the
// dashboard's ~150 (every zone's run grows on its own).
func BenchmarkAppend(b *testing.B) {
	for _, zones := range []int{1, 150} {
		b.Run(fmt.Sprintf("zones=%d", zones), func(b *testing.B) {
			db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute})
			zs := make([]string, zones)
			for i := range zs {
				zs[i] = fmt.Sprintf("FR75%03d", i+1)
			}
			rng := rand.New(rand.NewSource(7))
			base := testBase.UnixMilli()
			ms := (7 * 24 * time.Hour).Milliseconds()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.Append(uint64(i+1), Point{
					TS:    base + rng.Int63n(ms),
					Value: 20 + rng.Float64()*90,
					Zone:  zs[i%zones],
				})
			}
		})
	}
}

// BenchmarkRollupResident prices the part of the store that grows for
// ever: what the rollups keep on the heap once retention has dropped
// every raw chunk. 150 zones over 4 h of 5-minute buckets, fed about
// three points a bucket (sparse, the dashboard-read shape, where cells
// stay inline) or forty (dense, where every cell spills). It reports
// live heap per bucket — cells, spilled histograms, maps and memo
// slots — and in all.
func BenchmarkRollupResident(b *testing.B) {
	const zones, span = 150, 4 * time.Hour
	buckets := zones * int(span/(5*time.Minute))
	for _, tc := range []struct {
		name      string
		perBucket int
	}{{"sparse", 3}, {"dense", 40}} {
		b.Run(tc.name, func(b *testing.B) {
			var live uint64
			var st Stats
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute})
				benchFill(db, buckets*tc.perBucket, span, zones)
				db.ApplyRetention(testBase.Add(span + time.Hour))
				runtime.GC()
				runtime.ReadMemStats(&after)
				live = after.HeapAlloc - before.HeapAlloc
				st = db.Stats()
				runtime.KeepAlive(db)
			}
			b.ReportMetric(float64(live)/float64(st.RollupBuckets), "B/bucket")
			b.ReportMetric(float64(live)/(1<<20), "live-MiB")
		})
	}
}
