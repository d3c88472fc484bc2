package series

import (
	"slices"
	"sync/atomic"
)

// Window memo: per (zone, partition window), what that window's rollup
// buckets add up to, so a day-wide read costs the windows it spans plus
// the buckets of its two ragged ends, not 287 histogram merges a zone.
//
// The memo is derived state — a pure function of the window's buckets,
// merged in ascending order. The first reader to need it fills it;
// AppendBatch drops it for exactly the window a point lands in (late
// uploads, this system's normal case, dirty one old hour). It is never
// persisted or replicated: a restart or another replica recomputes the
// same value, so an answer depends neither on arrival order nor on
// history (DESIGN.md §11 "Window memo").

// windowMemo is one zone's rollups inside one partition window.
// Immutable once published.
type windowMemo struct {
	// sum is the window's buckets merged in ascending start order,
	// held dense: it is the operand of every read that spans the window.
	sum Agg
	// buckets is the window's non-empty buckets, ascending.
	buckets []Bucket
}

// memoSlot holds a window's memo, nil until a reader computes it.
// Writers create and clear slots under the write lock; readers fill
// them under the read lock, where two that race store equal memos.
type memoSlot = atomic.Pointer[windowMemo]

// memoUse counts how one query's windows were served.
type memoUse struct{ hits, fills int }

// resetMemosLocked gives every window holding a rollup bucket an empty
// slot — readers find a window's data through db.memos and never write
// the map. It runs wherever db.rollups is replaced. Caller holds the
// write lock or owns the DB.
func (db *DB) resetMemosLocked() {
	db.memos = make(map[string]map[int64]*memoSlot, len(db.rollups))
	for zone, zm := range db.rollups {
		wm := make(map[int64]*memoSlot)
		for b := range zm {
			if w := alignDown(b, db.windowMs); wm[w] == nil {
				wm[w] = new(memoSlot)
			}
		}
		db.memos[zone] = wm
	}
}

// dirtyLocked drops the memo of the window a point of zone landed in,
// creating the slot on the window's first point. Caller holds the
// write lock.
func (db *DB) dirtyLocked(zone string, win int64) {
	wm := db.memos[zone]
	if wm == nil {
		wm = make(map[int64]*memoSlot)
		db.memos[zone] = wm
	}
	if s := wm[win]; s == nil {
		wm[win] = new(memoSlot)
	} else if s.Load() != nil {
		s.Store(nil)
	}
}

// windowsLocked appends to dst the memo of every window of zone that
// starts in [w0, w1) and holds data, ascending, filling the missing
// ones. w0 is window-aligned, zm the zone's buckets. Caller holds a
// lock.
func (db *DB) windowsLocked(dst []*windowMemo, zone string, zm map[int64]*cell, w0, w1 int64, use *memoUse) []*windowMemo {
	wm := db.memos[zone]
	if (w1-w0)/db.windowMs <= int64(len(wm)) {
		for w := w0; w < w1; w += db.windowMs {
			if s := wm[w]; s != nil {
				dst = append(dst, db.memoLocked(zm, s, w, use))
			}
		}
		return dst
	}
	// Wider than the zone's data: visit the windows it has, still
	// ascending, so float sums associate the same way however wide the
	// question was.
	var buf [32]int64
	wins := buf[:0]
	for w := range wm {
		if w >= w0 && w < w1 {
			wins = append(wins, w)
		}
	}
	slices.Sort(wins)
	for _, w := range wins {
		dst = append(dst, db.memoLocked(zm, wm[w], w, use))
	}
	return dst
}

// memoLocked returns the memo in s, computing and publishing it from
// the window's buckets when it is missing.
func (db *DB) memoLocked(zm map[int64]*cell, s *memoSlot, win int64, use *memoUse) *windowMemo {
	if m := s.Load(); m != nil {
		use.hits++
		return m
	}
	use.fills++
	m := &windowMemo{buckets: make([]Bucket, 0, min(int(db.windowMs/db.bucketMs), len(zm)))}
	for b := win; b < win+db.windowMs; b += db.bucketMs {
		if c := zm[b]; c != nil {
			c.mergeInto(&m.sum)
			m.buckets = append(m.buckets, Bucket{Start: b, Count: c.count, Energy: c.energy})
		}
	}
	s.Store(m)
	return m
}

// in returns the memo's buckets whose start falls in [lo, hi).
func (m *windowMemo) in(lo, hi int64) []Bucket {
	bs := m.buckets
	for len(bs) > 0 && bs[0].Start < lo {
		bs = bs[1:]
	}
	for len(bs) > 0 && bs[len(bs)-1].Start >= hi {
		bs = bs[:len(bs)-1]
	}
	return bs
}
