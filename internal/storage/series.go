package storage

import (
	"context"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/series"
)

// Series integration: a Local engine can carry a series.DB — the
// time-partitioned chunk store with continuous aggregates — fed by the
// docstore ingest observer and checkpointed/recovered in lockstep with
// the store (see OpenLocal and Checkpoint for the ordering that makes
// rollups crash-safe).

// SeriesOptions enable the series engine on a Local.
type SeriesOptions struct {
	series.Options
}

// seriesCollection is the docstore collection the series observes.
const seriesCollection = "observations"

// SeriesQuerier is the optional query surface a storage engine exposes
// when a series view is attached. Callers discover it by type
// assertion on the Engine and must fall back to document scans when
// the second return value is false (no series attached on this
// engine). The cluster Router implements it by fanning out and
// merging the shard aggregates — Agg merging is exact, so a sharded
// answer equals the single-node one.
type SeriesQuerier interface {
	// SeriesZoneAggregate aggregates one zone over [from, to).
	SeriesZoneAggregate(ctx context.Context, zone string, from, to time.Time) (series.Agg, bool, error)
	// SeriesNoisemap aggregates every zone over [from, to).
	SeriesNoisemap(ctx context.Context, from, to time.Time) (map[string]series.Agg, bool, error)
	// SeriesStats snapshots the series counters.
	SeriesStats() (series.Stats, bool)
}

// RollupReader is the optional bucket-granular read surface the
// forecasting subsystem (internal/predict) needs: the window's rollup
// buckets as a time series instead of one collapsed aggregate.
// Discovered by type assertion like SeriesQuerier; the bool result is
// false when no series is attached. The cluster Router merges shard
// buckets in fixed shard order, so the merged series — and any
// forecast fitted over it — is bit-identical run to run.
type RollupReader interface {
	// SeriesZoneBuckets returns one zone's buckets with start in
	// [from, to), ascending.
	SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error)
	// SeriesAllBuckets returns every zone's buckets with start in
	// [from, to), each ascending.
	SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error)
}

// Series returns the engine's series DB (nil when none is attached).
func (l *Local) Series() *series.DB { return l.series }

// observeSeries registers the ingest observer that feeds the series.
// The observer delivers one whole mutation per call (a full
// InsertMany batch under a single LSN), and the points are handed to
// the series as one AppendBatch so the batch is applied — and, on
// replay, skipped — as a unit; feeding them point by point would make
// the shared LSN look like a replay after the first point and drop
// the rest of the batch.
func (l *Local) observeSeries() {
	db := l.series
	l.store.SetIngestObserver(seriesCollection, func(lsn uint64, docs docstore.Batch) {
		pts := make([]series.Point, 0, docs.Len())
		for i := 0; i < docs.Len(); i++ {
			if p, ok := rowPoint(docs.Row(i)); ok {
				pts = append(pts, p)
			}
		}
		db.AppendBatch(lsn, pts)
	})
}

// backfillPage is how many documents backfillSeries reads at a time.
const backfillPage = 4096

// backfillSeries scans the observed collection into the series at LSN
// 0 — the bootstrap path when the series is enabled over a store that
// already holds data (snapshot-loaded, or built without a series). It
// walks the collection in insertion order a page of rows at a time,
// reads the three fields typed, and appends each page as one batch.
func (l *Local) backfillSeries() {
	c := l.store.Collection(seriesCollection)
	var pts []series.Point
	for after := ""; ; {
		rows, err := c.FindRowsAfterContext(context.Background(), after, nil, backfillPage)
		if err != nil || len(rows) == 0 {
			return
		}
		pts = pts[:0]
		for _, r := range rows {
			if p, ok := rowPoint(r); ok {
				pts = append(pts, p)
			}
		}
		l.series.AppendBatch(0, pts)
		after, _ = rows[len(rows)-1].Value(docstore.IDField).(string)
	}
}

// pointFields are the fields a series point is read from.
var pointFields = docstore.NewFields("sensedAt", "spl", "zone")

// rowPoint is series.PointFromFields of the row's fields, read typed as
// the store keeps them. Only a row whose sensedAt is not a time or
// whose spl is not a float64, int or int64 has them boxed for the
// general rules.
func rowPoint(r docstore.Row) (series.Point, bool) {
	f := pointFields.In(r)
	ts, tsOK := f.Time(0)
	v, vOK := f.Float(1)
	if !tsOK || !vOK {
		return series.PointFromFields(f.At(0), f.At(1), f.At(2))
	}
	zone, _ := f.String(2)
	return series.Point{TS: ts.UnixMilli(), Value: v, Zone: zone}, true
}

// SeriesZoneAggregate implements SeriesQuerier.
func (l *Local) SeriesZoneAggregate(ctx context.Context, zone string, from, to time.Time) (series.Agg, bool, error) {
	if l.series == nil {
		return series.Agg{}, false, nil
	}
	agg, err := l.series.ZoneAggregate(ctx, zone, from, to)
	return agg, true, err
}

// SeriesNoisemap implements SeriesQuerier.
func (l *Local) SeriesNoisemap(ctx context.Context, from, to time.Time) (map[string]series.Agg, bool, error) {
	if l.series == nil {
		return nil, false, nil
	}
	m, err := l.series.Noisemap(ctx, from, to)
	return m, true, err
}

// SeriesStats implements SeriesQuerier.
func (l *Local) SeriesStats() (series.Stats, bool) {
	if l.series == nil {
		return series.Stats{}, false
	}
	return l.series.Stats(), true
}

// SeriesZoneBuckets implements RollupReader.
func (l *Local) SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error) {
	if l.series == nil {
		return nil, false, nil
	}
	bs, err := l.series.ZoneBuckets(ctx, zone, from, to)
	return bs, true, err
}

// SeriesAllBuckets implements RollupReader.
func (l *Local) SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error) {
	if l.series == nil {
		return nil, false, nil
	}
	m, err := l.series.AllBuckets(ctx, from, to)
	return m, true, err
}
