package series

import (
	"context"
	"time"
)

// Query path. The common analytics windows align to rollup buckets and
// are answered purely from the continuous aggregates — one memoized
// sum per whole partition window plus the buckets of the two ragged
// ends (memo.go), no raw data touched. Arbitrary windows split into an
// aligned core (rollups) plus up to two sub-bucket edges, which scan
// only the chunks the sparse index cannot rule out.

// queryCtxCheckEvery is how many chunk decodes pass between context
// checks during an edge scan. A chunk is up to MaxChunkPoints, so the
// deadline is honored within a few hundred thousand points.
const queryCtxCheckEvery = 8

// ZoneAggregate aggregates one zone's observations with sensing time
// in [from, to).
func (db *DB) ZoneAggregate(ctx context.Context, zone string, from, to time.Time) (Agg, error) {
	start := time.Now()
	var agg Agg
	lo, hi := from.UnixMilli(), to.UnixMilli()
	if lo >= hi {
		return agg, nil
	}
	af, at := alignUp(lo, db.bucketMs), alignDown(hi, db.bucketMs)

	db.mu.RLock()
	scanned, skipped := 0, 0
	var use memoUse
	var err error
	if af >= at {
		// No fully covered bucket: the whole range is one edge scan.
		scanned, skipped, err = db.scanLocked(ctx, zone, lo, hi, &agg, 0)
	} else {
		db.sumRollupsLocked(zone, af, at, &agg, &use)
		scanned, skipped, err = db.scanLocked(ctx, zone, lo, af, &agg, 0)
		if err == nil {
			var s2, k2 int
			s2, k2, err = db.scanLocked(ctx, zone, at, hi, &agg, scanned)
			scanned += s2
			skipped += k2
		}
	}
	db.mu.RUnlock()
	db.queryHook("zone", start, scanned, skipped, use)
	if err != nil {
		return Agg{}, err
	}
	return agg, nil
}

// Noisemap aggregates every zone's observations with sensing time in
// [from, to): the whole-city query. Zones with no data in the window
// are absent from the result.
func (db *DB) Noisemap(ctx context.Context, from, to time.Time) (map[string]Agg, error) {
	start := time.Now()
	lo, hi := from.UnixMilli(), to.UnixMilli()
	if lo >= hi {
		return map[string]Agg{}, nil
	}
	af, at := alignUp(lo, db.bucketMs), alignDown(hi, db.bucketMs)

	db.mu.RLock()
	out := make(map[string]Agg, len(db.rollups))
	addEdge := func(ts int64, v float64, zone string) {
		a := out[zone]
		a.Add(v)
		out[zone] = a
	}
	scanned, skipped := 0, 0
	var use memoUse
	var err error
	if af >= at {
		scanned, skipped, err = db.scanAllLocked(ctx, lo, hi, addEdge, 0)
	} else {
		for zone := range db.rollups {
			var agg Agg
			db.sumRollupsLocked(zone, af, at, &agg, &use)
			if agg.Count > 0 {
				out[zone] = agg
			}
		}
		scanned, skipped, err = db.scanAllLocked(ctx, lo, af, addEdge, 0)
		if err == nil {
			var s2, k2 int
			s2, k2, err = db.scanAllLocked(ctx, at, hi, addEdge, scanned)
			scanned += s2
			skipped += k2
		}
	}
	db.mu.RUnlock()
	db.queryHook("noisemap", start, scanned, skipped, use)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sumRollupsLocked merges every rollup bucket of zone in [af, at)
// (both bucket-aligned) into agg, always in the same order: the
// buckets before the first whole partition window, each whole window
// from its memo, the buckets after the last. Caller holds a lock.
func (db *DB) sumRollupsLocked(zone string, af, at int64, agg *Agg, use *memoUse) {
	zm := db.rollups[zone]
	if zm == nil {
		return
	}
	w0, w1 := alignUp(af, db.windowMs), alignDown(at, db.windowMs)
	if w0 >= w1 {
		// No whole window inside: under two windows' worth of buckets.
		w0, w1 = at, at
	}
	for b := af; b < w0; b += db.bucketMs {
		if a := zm[b]; a != nil {
			agg.Merge(a)
		}
	}
	if w0 < w1 {
		var buf [32]*windowMemo // a day of hourly windows, on the stack
		for _, m := range db.windowsLocked(buf[:0], zone, zm, w0, w1, use) {
			agg.Merge(&m.sum)
		}
	}
	for b := w1; b < at; b += db.bucketMs {
		if a := zm[b]; a != nil {
			agg.Merge(a)
		}
	}
}

// scanLocked decodes the chunks of one zone that may overlap [lo, hi)
// and folds matching points into agg, skipping chunks the sparse
// index rules out by time range or zone set. checkedAlready offsets
// the periodic context check so consecutive scans of one query share
// the cadence. Caller holds a lock. Returns (scanned, skipped)
// chunk counts.
func (db *DB) scanLocked(ctx context.Context, zone string, lo, hi int64, agg *Agg, checkedAlready int) (scanned, skipped int, err error) {
	return db.scanChunksLocked(ctx, lo, hi, checkedAlready,
		func(ch *Chunk) bool { return ch.hasZone(zone) },
		func(ts int64, v float64, z string) {
			if z == zone && ts >= lo && ts < hi {
				agg.Add(v)
			}
		})
}

// scanAllLocked is scanLocked over every zone.
func (db *DB) scanAllLocked(ctx context.Context, lo, hi int64, add func(ts int64, v float64, zone string), checkedAlready int) (scanned, skipped int, err error) {
	return db.scanChunksLocked(ctx, lo, hi, checkedAlready,
		func(*Chunk) bool { return true },
		func(ts int64, v float64, z string) {
			if ts >= lo && ts < hi {
				add(ts, v, z)
			}
		})
}

// scanChunksLocked drives an edge scan: for every partition
// overlapping [lo, hi), decode the chunks that pass both the time
// bounds and the caller's zone test, checking the context every
// queryCtxCheckEvery decodes.
func (db *DB) scanChunksLocked(ctx context.Context, lo, hi int64, checkedAlready int, want func(*Chunk) bool, visit func(ts int64, v float64, zone string)) (scanned, skipped int, err error) {
	if lo >= hi {
		return 0, 0, nil
	}
	scan := func(ch *Chunk) error {
		if !ch.overlaps(lo, hi) || !want(ch) {
			skipped++
			return nil
		}
		if (checkedAlready+scanned)%queryCtxCheckEvery == queryCtxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		scanned++
		return ch.points(visit)
	}
	for start, pt := range db.parts {
		if start+db.windowMs <= lo || start >= hi {
			continue // the partition window misses the range entirely
		}
		for _, ch := range pt.sealed {
			if err := scan(ch); err != nil {
				return scanned, skipped, err
			}
		}
		if pt.active != nil && pt.active.count > 0 {
			if err := scan(pt.active.snapshot()); err != nil {
				return scanned, skipped, err
			}
		}
	}
	return scanned, skipped, nil
}

func (db *DB) queryHook(kind string, start time.Time, scanned, skipped int, use memoUse) {
	h := db.h()
	if h == nil {
		return
	}
	if h.Query != nil {
		h.Query(kind, time.Since(start), scanned, skipped)
	}
	if h.WindowMemo != nil && use != (memoUse{}) {
		h.WindowMemo(use.hits, use.fills)
	}
}
