package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
)

// Series queries under sharding. Observations shard by the anonymized
// contributor id, so one zone's points are spread across every shard
// and each shard's rollups are partial aggregates. Because every Agg
// field is mergeable (counts, sums, energy, min/max, histogram bins
// all add), merging the shard partials reproduces the single-node
// answer exactly — per-zone rollup maintenance needs no cross-shard
// coordination at ingest, only this merge at query time.

var _ storage.SeriesQuerier = (*Router)(nil)
var _ storage.RollupReader = (*Router)(nil)

// SeriesZoneAggregate implements storage.SeriesQuerier: fan out,
// merge the partial aggregates. The ok result is false when any shard
// has no series attached (the caller then falls back to a document
// scan, which fans out the ordinary way).
func (r *Router) SeriesZoneAggregate(ctx context.Context, zone string, from, to time.Time) (series.Agg, bool, error) {
	var (
		mu  sync.Mutex
		agg series.Agg
		ok  = true
	)
	err := r.fanOut(func(s storage.Engine) error {
		sq, is := s.(storage.SeriesQuerier)
		if !is {
			mu.Lock()
			ok = false
			mu.Unlock()
			return nil
		}
		a, has, err := sq.SeriesZoneAggregate(ctx, zone, from, to)
		if err != nil {
			return err
		}
		mu.Lock()
		if has {
			agg.Merge(&a)
		} else {
			ok = false
		}
		mu.Unlock()
		return nil
	})
	if err != nil || !ok {
		return series.Agg{}, ok, err
	}
	return agg, true, nil
}

// SeriesNoisemap implements storage.SeriesQuerier: fan out and merge
// the per-zone partial aggregates of every shard.
func (r *Router) SeriesNoisemap(ctx context.Context, from, to time.Time) (map[string]series.Agg, bool, error) {
	var (
		mu     sync.Mutex
		merged = make(map[string]series.Agg)
		ok     = true
	)
	err := r.fanOut(func(s storage.Engine) error {
		sq, is := s.(storage.SeriesQuerier)
		if !is {
			mu.Lock()
			ok = false
			mu.Unlock()
			return nil
		}
		m, has, err := sq.SeriesNoisemap(ctx, from, to)
		if err != nil {
			return err
		}
		mu.Lock()
		if has {
			for zone, a := range m {
				got := merged[zone]
				got.Merge(&a)
				merged[zone] = got
			}
		} else {
			ok = false
		}
		mu.Unlock()
		return nil
	})
	if err != nil || !ok {
		return nil, ok, err
	}
	return merged, true, nil
}

// SeriesZoneBuckets implements storage.RollupReader: each shard's
// bucket series merged bucket-by-bucket. Shards are visited in fixed
// index order — not the concurrent fan-out — so float summation order
// inside each merged bucket is identical run to run and the forecaster
// fitted over the result is bit-deterministic (the property the
// cluster-merge forecast test pins).
func (r *Router) SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error) {
	merged := make(map[int64]*series.Bucket)
	for _, s := range r.shards {
		rr, is := s.(storage.RollupReader)
		if !is {
			return nil, false, nil
		}
		bs, has, err := rr.SeriesZoneBuckets(ctx, zone, from, to)
		if err != nil {
			return nil, true, err
		}
		if !has {
			return nil, false, nil
		}
		mergeBuckets(merged, bs)
	}
	return sortedBuckets(merged), true, nil
}

// SeriesAllBuckets implements storage.RollupReader: the whole-city
// forecast sweep input, merged per zone in fixed shard order.
func (r *Router) SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error) {
	merged := make(map[string]map[int64]*series.Bucket)
	for _, s := range r.shards {
		rr, is := s.(storage.RollupReader)
		if !is {
			return nil, false, nil
		}
		m, has, err := rr.SeriesAllBuckets(ctx, from, to)
		if err != nil {
			return nil, true, err
		}
		if !has {
			return nil, false, nil
		}
		for zone, bs := range m {
			zm := merged[zone]
			if zm == nil {
				zm = make(map[int64]*series.Bucket)
				merged[zone] = zm
			}
			mergeBuckets(zm, bs)
		}
	}
	out := make(map[string][]series.Bucket, len(merged))
	for zone, zm := range merged {
		out[zone] = sortedBuckets(zm)
	}
	return out, true, nil
}

// mergeBuckets folds one shard's buckets in. A Bucket carries the two
// Agg fields a level needs and merging adds both, exactly as Agg.Merge
// adds them; with the fixed shard order above, the merged energy is the
// same float on every run.
func mergeBuckets(into map[int64]*series.Bucket, bs []series.Bucket) {
	for i := range bs {
		b := into[bs[i].Start]
		if b == nil {
			b = &series.Bucket{Start: bs[i].Start}
			into[bs[i].Start] = b
		}
		b.Count += bs[i].Count
		b.Energy += bs[i].Energy
	}
}

func sortedBuckets(m map[int64]*series.Bucket) []series.Bucket {
	if len(m) == 0 {
		return nil
	}
	out := make([]series.Bucket, 0, len(m))
	for _, b := range m {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// SeriesStats implements storage.SeriesQuerier: counters summed
// across shards (Zones sums per-shard zone counts, so a zone present
// on several shards counts once per shard; Watermark and
// RetentionFloor report the maximum).
func (r *Router) SeriesStats() (series.Stats, bool) {
	var agg series.Stats
	for _, s := range r.shards {
		sq, is := s.(storage.SeriesQuerier)
		if !is {
			return series.Stats{}, false
		}
		st, has := sq.SeriesStats()
		if !has {
			return series.Stats{}, false
		}
		agg.Points += st.Points
		agg.Partitions += st.Partitions
		agg.SealedChunks += st.SealedChunks
		agg.SealedBytes += st.SealedBytes
		agg.Zones += st.Zones
		agg.RollupBuckets += st.RollupBuckets
		agg.RollupBytes += st.RollupBytes
		if st.Watermark > agg.Watermark {
			agg.Watermark = st.Watermark
		}
		if st.RetentionFloor > agg.RetentionFloor {
			agg.RetentionFloor = st.RetentionFloor
		}
	}
	return agg, true
}
