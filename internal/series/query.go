package series

import (
	"context"
	"fmt"
	"time"
)

// Query path. The common analytics windows align to rollup buckets and
// are answered purely from the continuous aggregates — one memoized
// sum per whole partition window plus the buckets of the two ragged
// ends (memo.go), no raw data touched. Arbitrary windows split into an
// aligned core (rollups) plus up to two sub-bucket edges, which decode
// only the runs the sparse index cannot rule out.

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
	s := edgeScan{ctx: ctx}
	var use memoUse
	var err error
	if af >= at {
		// No fully covered bucket: the whole range is one edge scan.
		err = db.zoneEdgeLocked(&s, zone, lo, hi, &agg)
	} else {
		db.sumRollupsLocked(zone, af, at, &agg, &use)
		err = db.zoneEdgeLocked(&s, zone, lo, af, &agg)
		if err == nil {
			err = db.zoneEdgeLocked(&s, zone, at, hi, &agg)
		}
	}
	db.mu.RUnlock()
	db.queryDone("zone", start, &s, use)
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
	s := edgeScan{ctx: ctx}
	var use memoUse
	var err error
	if af >= at {
		err = db.cityEdgeLocked(&s, lo, hi, out)
	} else {
		for zone := range db.rollups {
			var agg Agg
			db.sumRollupsLocked(zone, af, at, &agg, &use)
			if agg.Count > 0 {
				out[zone] = agg
			}
		}
		err = db.cityEdgeLocked(&s, lo, af, out)
		if err == nil {
			err = db.cityEdgeLocked(&s, at, hi, out)
		}
	}
	db.mu.RUnlock()
	db.queryDone("noisemap", start, &s, use)
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
		if c := zm[b]; c != nil {
			c.mergeInto(agg)
		}
	}
	if w0 < w1 {
		var buf [32]*windowMemo // a day of hourly windows, on the stack
		for _, m := range db.windowsLocked(buf[:0], zone, zm, w0, w1, use) {
			agg.Merge(&m.sum)
		}
	}
	for b := w1; b < at; b += db.bucketMs {
		if c := zm[b]; c != nil {
			c.mergeInto(agg)
		}
	}
}

// edgeScan is one query's walk over the raw chunks of its sub-bucket
// edges, counting its work for the metrics.
type edgeScan struct {
	ctx context.Context
	// scanned and skipped count the chunks decoded vs ruled out by the
	// sparse index.
	scanned, skipped int
	// decoded and kept count the points decoded vs folded into the
	// answer.
	decoded, kept int
}

// edgeChunksLocked calls fn for every chunk of the partition windows
// overlapping [lo, hi): windows ascending, sealed chunks in seal order,
// the active chunk last. An edge is under two buckets wide, so this is
// one or two map lookups, and every zone's points reach fn in the same
// order on every call: windows in time order, append order within a
// window. Caller holds a lock.
func (db *DB) edgeChunksLocked(lo, hi int64, fn func(*Chunk) error) error {
	for w := alignDown(lo, db.windowMs); w < hi; w += db.windowMs {
		pt := db.parts[w]
		if pt == nil {
			continue
		}
		for _, ch := range pt.sealed {
			if err := fn(ch); err != nil {
				return err
			}
		}
		if pt.active != nil && pt.active.Count > 0 {
			if err := fn(&pt.active.Chunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// zoneEdgeLocked folds zone's points with sensing time in [lo, hi) into
// agg, decoding only that zone's run of a chunk, and only when the
// run's own time bounds reach the edge. Caller holds a lock.
func (db *DB) zoneEdgeLocked(s *edgeScan, zone string, lo, hi int64, agg *Agg) error {
	return db.edgeChunksLocked(lo, hi, func(ch *Chunk) error {
		r := ch.run(zone)
		if r == nil || !r.overlaps(lo, hi) {
			s.skipped++
			return nil
		}
		if err := s.next(); err != nil {
			return err
		}
		return s.fold(ch, r, lo, hi, agg)
	})
}

// cityEdgeLocked folds every zone's points with sensing time in
// [lo, hi) into out: one map read and one write per run that holds any.
// Caller holds a lock.
func (db *DB) cityEdgeLocked(s *edgeScan, lo, hi int64, out map[string]Agg) error {
	return db.edgeChunksLocked(lo, hi, func(ch *Chunk) error {
		if !ch.overlaps(lo, hi) {
			s.skipped++
			return nil
		}
		if err := s.next(); err != nil {
			return err
		}
		for i := range ch.Runs {
			r := &ch.Runs[i]
			if !r.overlaps(lo, hi) {
				continue
			}
			agg := out[r.Zone]
			n := agg.Count
			if err := s.fold(ch, r, lo, hi, &agg); err != nil {
				return err
			}
			if agg.Count > n {
				out[r.Zone] = agg
			}
		}
		return nil
	})
}

// next counts one more chunk decode, checking the context every
// queryCtxCheckEvery.
func (s *edgeScan) next() error {
	if s.scanned%queryCtxCheckEvery == queryCtxCheckEvery-1 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	s.scanned++
	return nil
}

// fold decodes run r of ch and adds its points in [lo, hi) to agg.
func (s *edgeScan) fold(ch *Chunk, r *Run, lo, hi int64, agg *Agg) error {
	n := agg.Count
	err := r.each(ch.Part, func(ts, centi int64) {
		if ts >= lo && ts < hi {
			agg.Add(float64(centi) / 100)
		}
	})
	if err != nil {
		return fmt.Errorf("series: chunk %d/%d: %w", ch.Part, ch.Seq, err)
	}
	s.decoded += r.Count
	s.kept += int(agg.Count - n)
	return nil
}

// queryDone records one query in the metrics, when they are attached.
func (db *DB) queryDone(kind string, start time.Time, s *edgeScan, use memoUse) {
	m := db.metrics.Load()
	if m == nil {
		return
	}
	m.queryDur.With(kind).ObserveDuration(time.Since(start))
	m.scanned.Add(uint64(s.scanned))
	m.skipped.Add(uint64(s.skipped))
	m.edgeDecoded.Add(uint64(s.decoded))
	m.edgeKept.Add(uint64(s.kept))
	m.memoHit.Add(uint64(use.hits))
	m.memoFill.Add(uint64(use.fills))
}
