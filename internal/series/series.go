// Package series is the read-side counterpart of the ingest fast path:
// an append-optimized, time-partitioned store for sound observations
// that keeps analytics and noisemap queries flat-cost while raw volume
// grows. Three structures work together:
//
//   - Immutable sealed chunks per (partition window) hold the raw
//     points in a columnar encoding, one run per zone — delta-of-delta
//     timestamps and delta-encoded centi-dB values, both zigzag-varint
//     (chunk.go). ~6 bytes/point instead of ~350 bytes/document.
//   - A per-chunk sparse index (min/max timestamp, plus each zone's
//     run with its own time bounds) lets range queries skip whole
//     chunks, and single-zone queries every other zone, without
//     decoding a byte.
//   - Continuous aggregates: per-(zone, bucket) rollups maintained
//     incrementally at ingest (rollup.go), so the common analytics
//     shapes — zone noise over a window, a whole-city noisemap — are
//     answered by summing a handful of pre-computed aggregates in
//     microseconds, never touching raw data. Because every Agg field
//     is mergeable, cross-shard answers are exact.
//
// The DB is fed by the docstore ingest observer (one AppendBatch per
// insert mutation — a whole InsertMany batch shares its WAL record's
// LSN and is applied or skipped as a unit) and recovers with the
// engine: chunks and rollups are persisted at checkpoints together
// with the high-water LSN, and WAL replay re-feeds only records above
// that watermark (persist.go). Retention ages raw chunks out while
// keeping rollups, so aggregate answers over aligned windows never
// change when old raw data is dropped.
//
// Values are quantized to centi-dB (the chunk encoding's precision) on
// the way in, so a rollup maintained at ingest and one rebuilt from
// chunks see bit-identical floats — the crash tests assert exact
// equality, not epsilon closeness.
package series

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Point is one observation in the series: when, how loud, where.
type Point struct {
	// TS is the sensing time in Unix milliseconds.
	TS int64
	// Value is the sound pressure level in dB(A).
	Value float64
	// Zone is the geo zone id ("" when the observation carried no
	// location).
	Zone string
}

// Options configure a DB.
type Options struct {
	// Dir is where checkpoints persist chunks and rollups ("" = memory
	// only; Checkpoint is then a no-op).
	Dir string
	// chunkWindow is the time-partition width: 1h unless a test of
	// this package moves it. It must be a multiple of RollupBucket so every rollup bucket lives in
	// exactly one partition; a window that is not is rounded up to the
	// next multiple (withDefaults), so hand-set flags like
	// -rollup-interval 7m cannot silently break the retention
	// alignment invariant.
	chunkWindow time.Duration
	// RollupBucket is the continuous-aggregate bucket width (default
	// 5m).
	RollupBucket time.Duration
	// MaxChunkPoints seals the active chunk of a partition once it
	// holds this many points (default 65536).
	MaxChunkPoints int
	// Retention drops raw chunks older than this at checkpoints (0 =
	// keep raw data forever). Rollups are always kept.
	Retention time.Duration
	// now supplies the current time for the retention cutoff at
	// checkpoints (nil = time.Now). Retention tests of this package
	// inject a simulated clock here so "older than Retention" is
	// measured against simulated time, not the wall.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.chunkWindow <= 0 {
		o.chunkWindow = time.Hour
	}
	if o.RollupBucket <= 0 {
		o.RollupBucket = 5 * time.Minute
	}
	// Enforce the alignment invariant instead of trusting the doc
	// comment: round the window up so it is a multiple of the bucket
	// (a bucket straddling two partitions would break retention's
	// answers-never-change guarantee).
	if rem := o.chunkWindow % o.RollupBucket; rem != 0 {
		o.chunkWindow += o.RollupBucket - rem
	}
	if o.MaxChunkPoints <= 0 {
		o.MaxChunkPoints = 65536
	}
	return o
}

// partition is one chunkWindow of raw data: an active (mutable)
// builder plus the sealed chunks behind it.
type partition struct {
	start   int64 // window start, Unix ms
	active  *chunkBuilder
	sealed  []*Chunk
	nextSeq int
}

// DB is the time-partitioned series store. All methods are safe for
// concurrent use: appends and maintenance take the write lock, queries
// the read lock (sealed chunks are immutable, and the active builder
// only mutates under the write lock).
type DB struct {
	opts     Options
	windowMs int64
	bucketMs int64

	metrics atomic.Pointer[dbMetrics]

	// pointObs, when set, is called after every accepted (non-replay)
	// AppendBatch with the batch's points; see SetPointObserver.
	pointObs atomic.Pointer[func([]Point)]

	mu    sync.RWMutex
	parts map[int64]*partition
	// rollups is the continuous aggregate: zone → bucket start (Unix
	// ms) → aggregate, stored as a cell (cell.go). Nested maps keep
	// the per-bucket update at ingest and the per-bucket lookup at
	// query time O(1).
	rollups map[string]map[int64]*cell
	// spilled counts the cells in rollups holding a dense histogram.
	spilled int
	// rebuilds counts rollup rebuilds from the chunks (see Stats).
	rebuilds int
	// memos is derived from rollups: zone → partition window start →
	// what that window's buckets add up to (memo.go). A slot exists for
	// every window that holds a bucket.
	memos map[string]map[int64]*memoSlot

	// watermark is the highest WAL LSN whose observations reached this
	// DB. Appends at or below it are replays of already-observed
	// records and are skipped; checkpoints persist it so recovery
	// re-feeds exactly the WAL tail the last checkpoint missed. A
	// multi-point mutation (InsertMany) is applied in one critical
	// section before the watermark reaches its LSN, so lsn <= watermark
	// always means the *whole* record was absorbed — never part of it.
	watermark uint64
	// retentionFloor: raw chunks entirely below this time (Unix ms)
	// have been aged out; rollups still answer for them.
	retentionFloor int64

	points uint64 // total points appended (monotonic counter)
	epoch  uint64 // checkpoint counter, names the rollups file
}

// New creates an empty DB (no recovery). Use Open to load a persisted
// one.
func New(opts Options) *DB {
	opts = opts.withDefaults()
	return &DB{
		opts:     opts,
		windowMs: opts.chunkWindow.Milliseconds(),
		bucketMs: opts.RollupBucket.Milliseconds(),
		parts:    make(map[int64]*partition),
		rollups:  make(map[string]map[int64]*cell),
		memos:    make(map[string]map[int64]*memoSlot),
	}
}

// Quantize rounds a dB value to the centi-dB precision the chunk
// encoding stores. Append applies it; naive recomputations that want
// exact equality with the rollups must apply the same rounding.
func Quantize(v float64) float64 { return math.Round(v*100) / 100 }

// Append adds one point carried by the mutation at lsn. It is
// AppendBatch for a single-point mutation; see there for the
// watermark/replay semantics.
func (db *DB) Append(lsn uint64, p Point) {
	db.AppendBatch(lsn, []Point{p})
}

// AppendBatch adds every point of one mutation, updating the raw
// chunks and the continuous aggregates in a single critical section.
// lsn is the WAL LSN of the mutation that carried the points (0 when
// no WAL is attached, e.g. snapshot backfill): a non-zero lsn at or
// below the recovered watermark is a replay of an already-observed
// record and the whole batch is dropped, which is what makes WAL
// replay over a series checkpoint idempotent.
//
// The batch must be exactly the points of one WAL record (the ingest
// observer's granularity contract, docstore/observer.go): because all
// points land and the watermark advances under one lock hold, a
// concurrent checkpoint can never persist a watermark that covers a
// record it only partially absorbed.
func (db *DB) AppendBatch(lsn uint64, pts []Point) {
	if len(pts) == 0 {
		return
	}
	db.mu.Lock()
	if lsn != 0 {
		if lsn <= db.watermark {
			db.mu.Unlock()
			return
		}
		db.watermark = lsn
	}
	var sealedPoints, sealedBytes int
	for _, p := range pts {
		p.Value = Quantize(p.Value)
		start := alignDown(p.TS, db.windowMs)
		pt := db.parts[start]
		if pt == nil {
			pt = &partition{start: start}
			db.parts[start] = pt
		}
		if pt.active == nil {
			pt.active = newChunkBuilder(start)
		}
		pt.active.add(p)
		if pt.active.Count >= db.opts.MaxChunkPoints {
			ch := db.sealLocked(pt)
			sealedPoints += ch.Count
			sealedBytes += ch.bytes()
		}
		db.addRollupLocked(p.TS, p.Value, p.Zone)
		db.dirtyLocked(p.Zone, start)
		db.points++
	}
	db.mu.Unlock()
	if m := db.metrics.Load(); m != nil {
		m.appended.Add(uint64(len(pts)))
		if sealedPoints > 0 {
			m.seals.Inc()
			m.sealedBytes.Add(uint64(sealedBytes))
		}
	}
	if fn := db.pointObs.Load(); fn != nil {
		(*fn)(pts)
	}
}

// SetPointObserver registers a callback invoked after every accepted
// AppendBatch with the batch's points — replayed batches (lsn at or
// below the watermark) never reach it, so an observer sees each
// mutation's points at most once. The callback runs outside the DB
// lock on the appender's goroutine and must not block; it feeds
// lightweight derived views such as the live layer's latest-per-zone
// cache. A nil fn removes the observer.
func (db *DB) SetPointObserver(fn func([]Point)) {
	if fn == nil {
		db.pointObs.Store(nil)
		return
	}
	db.pointObs.Store(&fn)
}

// sealLocked freezes the partition's active builder into an immutable
// chunk. Caller holds the write lock and has checked active is
// non-empty.
func (db *DB) sealLocked(pt *partition) *Chunk {
	ch := pt.active.seal(pt.nextSeq)
	pt.nextSeq++
	pt.sealed = append(pt.sealed, ch)
	pt.active = nil
	return ch
}

// SetWatermark raises the watermark without appending — the backfill
// path uses it after scanning a snapshot-loaded store, so the WAL tail
// that produced the snapshot is not re-fed on top.
func (db *DB) SetWatermark(lsn uint64) {
	db.mu.Lock()
	if lsn > db.watermark {
		db.watermark = lsn
	}
	db.mu.Unlock()
}

// ApplyRetention drops every sealed chunk that lies entirely before
// cutoff, plus active builders of partitions entirely before it. The
// rollups are untouched: aggregate answers over retained buckets are
// invariant under retention. Returns how many chunks were dropped.
func (db *DB) ApplyRetention(cutoff time.Time) int {
	floor := cutoff.UnixMilli()
	db.mu.Lock()
	dropped, droppedPoints := 0, 0
	for start, pt := range db.parts {
		if start+db.windowMs <= floor {
			// Whole partition below the floor.
			for _, ch := range pt.sealed {
				dropped++
				droppedPoints += ch.Count
			}
			if pt.active != nil {
				dropped++
				droppedPoints += pt.active.Count
			}
			delete(db.parts, start)
			continue
		}
		kept := pt.sealed[:0]
		for _, ch := range pt.sealed {
			if ch.MaxTS < floor {
				dropped++
				droppedPoints += ch.Count
				continue
			}
			kept = append(kept, ch)
		}
		pt.sealed = kept
	}
	if floor > db.retentionFloor {
		db.retentionFloor = floor
	}
	db.mu.Unlock()
	if m := db.metrics.Load(); m != nil && dropped > 0 {
		m.retChunks.Add(uint64(dropped))
		m.retPoints.Add(uint64(droppedPoints))
	}
	return dropped
}

// Stats is a point-in-time summary of the DB.
type Stats struct {
	Points        uint64 `json:"points"`
	Partitions    int    `json:"partitions"`
	SealedChunks  int    `json:"sealedChunks"`
	SealedBytes   int64  `json:"sealedBytes"`
	Zones         int    `json:"zones"`
	RollupBuckets int    `json:"rollupBuckets"`
	// RollupBytes is what the rollups hold resident: a cell per bucket
	// plus a dense histogram per spilled one (map overhead aside).
	RollupBytes    int64  `json:"rollupBytes"`
	Watermark      uint64 `json:"watermark"`
	RetentionFloor int64  `json:"retentionFloor"`
	// RollupRebuilds counts rollup rebuilds from the chunks at Open
	// (recovery mismatch or corruption).
	RollupRebuilds int `json:"rollupRebuilds"`
}

// Stats snapshots the DB counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{
		Points:         db.points,
		Partitions:     len(db.parts),
		Zones:          len(db.rollups),
		Watermark:      db.watermark,
		RetentionFloor: db.retentionFloor,
		RollupRebuilds: db.rebuilds,
	}
	for _, pt := range db.parts {
		st.SealedChunks += len(pt.sealed)
		for _, ch := range pt.sealed {
			st.SealedBytes += int64(ch.bytes())
		}
	}
	for _, zm := range db.rollups {
		st.RollupBuckets += len(zm)
	}
	st.RollupBytes = int64(st.RollupBuckets)*int64(unsafe.Sizeof(cell{})) +
		int64(db.spilled)*int64(unsafe.Sizeof([HistBins]uint32{}))
	return st
}

// sortedParts returns the partitions in time order. Caller holds a
// lock.
func (db *DB) sortedParts() []*partition {
	out := make([]*partition, 0, len(db.parts))
	for _, pt := range db.parts {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// rebuildRollupsLocked recomputes the continuous aggregates from the
// raw chunks, each zone's points in original append order (partitions
// in time order, chunks in seal order, active last, a zone's run in
// append order) so float sums come out bit-identical to the
// incrementally maintained ones. Used when the persisted rollups are
// unreadable; note that raw data aged out by
// retention cannot be rebuilt — with retention active, rollup
// durability rests on the (CRC-checked, atomically replaced) rollups
// file.
func (db *DB) rebuildRollupsLocked() {
	db.rollups = make(map[string]map[int64]*cell)
	db.spilled = 0
	for _, pt := range db.sortedParts() {
		for _, ch := range pt.sealed {
			_ = ch.points(db.addRollupLocked)
		}
		if pt.active != nil {
			_ = pt.active.points(db.addRollupLocked)
		}
	}
	db.resetMemosLocked()
}

// addRollupLocked folds one point into its (zone, bucket) cell. Caller
// holds the write lock or owns the DB.
func (db *DB) addRollupLocked(ts int64, v float64, zone string) {
	zm := db.rollups[zone]
	if zm == nil {
		zm = make(map[int64]*cell)
		db.rollups[zone] = zm
	}
	bucket := alignDown(ts, db.bucketMs)
	c := zm[bucket]
	if c == nil {
		c = &cell{}
		zm[bucket] = c
	}
	if c.add(v) {
		db.spilled++
	}
}

// now reads the injected clock (wall time when none was configured).
func (db *DB) now() time.Time {
	if db.opts.now != nil {
		return db.opts.now()
	}
	return time.Now()
}

// alignDown floors ts to a multiple of width (correct for negative
// ts too, though observation times never are).
func alignDown(ts, width int64) int64 {
	r := ts % width
	if r < 0 {
		r += width
	}
	return ts - r
}

// alignUp ceils ts to a multiple of width.
func alignUp(ts, width int64) int64 {
	return alignDown(ts+width-1, width)
}

// PointFromObservation extracts a series point from a stored
// observation document (the goflow ingest schema: sensedAt, spl,
// zone). The bool is false for documents that do not carry a sensing
// time and a sound level.
func PointFromObservation(doc map[string]any) (Point, bool) {
	return PointFromFields(doc["sensedAt"], doc["spl"], doc["zone"])
}

// PointFromFields is PointFromObservation for a caller that holds the
// three fields it reads, not a map of them.
func PointFromFields(sensedAt, spl, zone any) (Point, bool) {
	ts, ok := docTime(sensedAt)
	if !ok {
		return Point{}, false
	}
	v, ok := docNum(spl)
	if !ok {
		return Point{}, false
	}
	z, _ := zone.(string)
	return Point{TS: ts.UnixMilli(), Value: v, Zone: z}, true
}

func docTime(v any) (time.Time, bool) {
	switch t := v.(type) {
	case time.Time:
		return t, true
	case string:
		ts, err := time.Parse(time.RFC3339Nano, t)
		return ts, err == nil
	default:
		return time.Time{}, false
	}
}

func docNum(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case float32:
		return float64(t), true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	default:
		return 0, false
	}
}
