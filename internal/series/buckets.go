package series

import (
	"context"
	"sort"
	"time"
)

// Bucket readers: the forecasting path. Where ZoneAggregate collapses
// a window into one Agg, the predictor needs the window's buckets as a
// time series — one Agg per (zone, RollupBucket) — to fit a trend.
// Both readers answer purely from the continuous aggregates; raw
// chunks are never touched, so they stay O(window buckets) regardless
// of how many points the store holds.

// Bucket is one continuous-aggregate bucket of one zone.
type Bucket struct {
	Start int64 // bucket start, Unix ms
	Agg   Agg
}

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

	db.mu.RLock()
	out := db.zoneBucketsLocked(zone, af, at)
	db.mu.RUnlock()

	db.queryHook("buckets", start, 0, 0)
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

	db.mu.RLock()
	out := make(map[string][]Bucket, len(db.rollups))
	for zone := range db.rollups {
		if bs := db.zoneBucketsLocked(zone, af, at); len(bs) > 0 {
			out[zone] = bs
		}
	}
	db.mu.RUnlock()

	db.queryHook("buckets-all", start, 0, 0)
	return out, nil
}

// zoneBucketsLocked copies the zone's buckets in [af, at) out of the
// rollup map, sorted ascending. The Aggs are value copies so callers
// hold no reference into the live view. The result is allocated once,
// at its final size: a Bucket is over half a kilobyte, and a whole-city
// sweep that grew every zone's slice by doubling spent most of what it
// allocated on copies it threw away. Caller holds a lock.
func (db *DB) zoneBucketsLocked(zone string, af, at int64) []Bucket {
	zm := db.rollups[zone]
	if len(zm) == 0 || af >= at {
		return nil
	}
	if n := (at - af) / db.bucketMs; n < int64(len(zm)) {
		present := 0
		for b := af; b < at; b += db.bucketMs {
			if _, ok := zm[b]; ok {
				present++
			}
		}
		if present == 0 {
			return nil
		}
		out := make([]Bucket, 0, present)
		for b := af; b < at; b += db.bucketMs {
			if a, ok := zm[b]; ok {
				out = append(out, Bucket{Start: b, Agg: *a})
			}
		}
		// Iterating aligned starts in order: already sorted.
		return out
	}
	out := make([]Bucket, 0, len(zm))
	for b, a := range zm {
		if b >= af && b < at {
			out = append(out, Bucket{Start: b, Agg: *a})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// BucketWidth reports the rollup bucket width.
func (db *DB) BucketWidth() time.Duration {
	return time.Duration(db.bucketMs) * time.Millisecond
}
