package series

import (
	"context"
	"time"
)

// Bucket readers: the forecasting path. Where ZoneAggregate collapses
// a window into one Agg, the predictor needs the window's buckets as a
// time series — one level per (zone, RollupBucket) — to fit a trend.
// Both readers answer purely from the continuous aggregates, through
// the window memos' bucket series (memo.go); raw chunks are never
// touched, so they stay O(window buckets) regardless of how many
// points the store holds.

// Bucket is one continuous-aggregate bucket of one zone, narrowed to
// what a level over time needs — 24 bytes a bucket where the whole Agg,
// histogram included, is 528 (a 576-byte allocation). Two partial
// Buckets of one start (two shards) merge by adding both fields, as
// Agg.Merge adds them.
type Bucket struct {
	Start  int64   // bucket start, Unix ms
	Count  uint64  // observations in the bucket
	Energy float64 // Σ 10^(v/10) over them, as in Agg.Energy
}

// LAeq is the bucket's equivalent continuous sound level, the same
// expression as Agg.LAeq (0 when empty).
func (b *Bucket) LAeq() float64 { return laeq(b.Count, b.Energy) }

// ZoneBuckets returns one zone's rollup buckets whose start falls in
// [from, to), ascending by start. Buckets with no data are absent, so
// the result may have gaps; a zone with no data in the window returns
// an empty slice, not an error.
func (db *DB) ZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]Bucket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	af := alignDown(from.UnixMilli(), db.bucketMs)
	at := to.UnixMilli()

	var use memoUse
	db.mu.RLock()
	out := db.zoneBucketsLocked(zone, af, at, &use)
	db.mu.RUnlock()

	db.queryDone("buckets", start, &edgeScan{}, use)
	return out, nil
}

// AllBuckets returns every zone's rollup buckets whose start falls in
// [from, to), each slice ascending by start: the forecaster's
// whole-city sweep input. Zones with no data in the window are absent.
func (db *DB) AllBuckets(ctx context.Context, from, to time.Time) (map[string][]Bucket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	af := alignDown(from.UnixMilli(), db.bucketMs)
	at := to.UnixMilli()

	var use memoUse
	db.mu.RLock()
	out := make(map[string][]Bucket, len(db.rollups))
	for zone := range db.rollups {
		if bs := db.zoneBucketsLocked(zone, af, at, &use); len(bs) > 0 {
			out[zone] = bs
		}
	}
	db.mu.RUnlock()

	db.queryDone("buckets-all", start, &edgeScan{}, use)
	return out, nil
}

// zoneBucketsLocked copies the zone's buckets with start in [af, at)
// out of the memos of the windows the range overlaps, ascending.
// Callers hold no reference into the engine, and the copy is allocated
// once, at its final size: a whole-city sweep makes one per zone.
// Caller holds a lock.
func (db *DB) zoneBucketsLocked(zone string, af, at int64, use *memoUse) []Bucket {
	zm := db.rollups[zone]
	if len(zm) == 0 || af >= at {
		return nil
	}
	var buf [8]*windowMemo
	memos := db.windowsLocked(buf[:0], zone, zm, alignDown(af, db.windowMs), at, use)
	n := 0
	for _, m := range memos {
		n += len(m.in(af, at))
	}
	if n == 0 {
		return nil
	}
	out := make([]Bucket, 0, n)
	for _, m := range memos {
		out = append(out, m.in(af, at)...)
	}
	return out
}
