package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
)

// The PR 7 exact-merge invariant extended to forecasting: observations
// shard by device, so each shard's rollups are partial aggregates, and
// the Router merges them bucket-by-bucket in fixed shard order. The
// forecast fitted over the Router's merged buckets must equal — to the
// bit — the forecast fitted over buckets merged by hand from the
// shards, and a seeded run must reproduce itself exactly.

var forecastBase = time.Date(2026, 3, 1, 6, 0, 0, 0, time.UTC)

// seedShardedSeries builds n shard engines with attached series and
// routes a seeded observation stream through a Router. Devices spread
// the points across shards; zones spread them across rollups.
func seedShardedSeries(t *testing.T, n int, seed int64) (*cluster.Router, []storage.Engine) {
	t.Helper()
	shards := make([]storage.Engine, n)
	for i := range shards {
		shards[i] = seriesEngine(t)
	}
	r, err := cluster.NewRouter(shards, cluster.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	zones := []string{"FR75001", "FR75002", "FR75003"}
	var docs []storage.Doc
	for i := 0; i < 4000; i++ {
		zone := zones[rng.Intn(len(zones))]
		docs = append(docs, storage.Doc{
			"device":   fmt.Sprintf("dev-%03d", rng.Intn(60)),
			"sensedAt": forecastBase.Add(time.Duration(rng.Int63n((3 * time.Hour).Nanoseconds()))),
			"spl":      45 + 15*rng.Float64() + float64(len(zone)%3),
			"zone":     zone,
		})
	}
	if _, err := r.InsertMany("observations", docs); err != nil {
		t.Fatal(err)
	}
	return r, shards
}

func TestClusterMergedForecastEqualsMergedRollupForecast(t *testing.T) {
	asOf := forecastBase.Add(3 * time.Hour)
	router, shards := seedShardedSeries(t, 3, 99)
	ctx := context.Background()

	// Hand-merge the shard buckets in the same fixed shard order the
	// Router uses.
	window := asOf.Add(-predict.Window)
	merged := make(map[string]map[int64]*series.Bucket)
	for _, s := range shards {
		rr := s.(storage.RollupReader)
		m, has, err := rr.SeriesAllBuckets(ctx, window, asOf)
		if err != nil || !has {
			t.Fatalf("shard buckets: has=%v err=%v", has, err)
		}
		for zone, bs := range m {
			zm := merged[zone]
			if zm == nil {
				zm = make(map[int64]*series.Bucket)
				merged[zone] = zm
			}
			for i := range bs {
				a := zm[bs[i].Start]
				if a == nil {
					a = &series.Bucket{Start: bs[i].Start}
					zm[bs[i].Start] = a
				}
				a.Count += bs[i].Count
				a.Energy += bs[i].Energy
			}
		}
	}

	// Router answer for the same window.
	routerBuckets, has, err := router.SeriesAllBuckets(ctx, window, asOf)
	if err != nil || !has {
		t.Fatalf("router buckets: has=%v err=%v", has, err)
	}
	if len(routerBuckets) != len(merged) {
		t.Fatalf("router has %d zones, hand-merge %d", len(routerBuckets), len(merged))
	}
	model := predict.NewModel(predict.Config{})
	forecasts := 0
	for zone, rb := range routerBuckets {
		zm := merged[zone]
		if len(rb) != len(zm) {
			t.Fatalf("zone %s: router %d buckets, hand-merge %d", zone, len(rb), len(zm))
		}
		hand := make([]series.Bucket, 0, len(zm))
		for _, b := range rb { // same starts, hand-merged buckets
			a, ok := zm[b.Start]
			if !ok {
				t.Fatalf("zone %s: router bucket %d missing from hand-merge", zone, b.Start)
			}
			hand = append(hand, *a)
			if b != *a {
				t.Fatalf("zone %s bucket %d: router merge differs from hand merge", zone, b.Start)
			}
		}
		fr, okR := model.ForecastZone(zone, rb, asOf)
		fh, okH := model.ForecastZone(zone, hand, asOf)
		if okR != okH || fr != fh {
			t.Fatalf("zone %s: cluster-merged forecast differs from merged-rollup forecast:\n%+v (ok=%v)\n%+v (ok=%v)",
				zone, fr, okR, fh, okH)
		}
		if okR {
			forecasts++
		}
	}
	if forecasts == 0 {
		t.Fatal("no zone was warm enough to forecast — fixture broken")
	}

	// And the whole pipeline through the Forecaster over the Router
	// engine is seed-deterministic: same seed, fresh cluster,
	// bit-identical forecasts.
	router2, _ := seedShardedSeries(t, 3, 99)
	clk := simclock.NewSim(asOf)
	f1 := predict.New(router, predict.Config{}, clk)
	f2 := predict.New(router2, predict.Config{}, clk)
	s1, err := f1.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f2.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("sweeps disagree in size: %d vs %d", len(s1), len(s2))
	}
	for zone, a := range s1 {
		if b, ok := s2[zone]; !ok || a != b {
			t.Fatalf("seeded cluster forecast not reproducible for %s:\n%+v\n%+v", zone, a, s2[zone])
		}
	}
}

func TestRouterBucketsUnavailableWithoutSeries(t *testing.T) {
	// One shard without a series view: the Router must report
	// "no series" so callers fall back, never a partial answer.
	l1 := seriesEngine(t)
	l2 := storage.NewLocal(docstore.NewStore())
	r, err := cluster.NewRouter([]storage.Engine{l1, l2}, cluster.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, has, err := r.SeriesAllBuckets(ctx, forecastBase, forecastBase.Add(time.Hour)); has || err != nil {
		t.Fatalf("partial series cluster: has=%v err=%v, want has=false", has, err)
	}
	if _, has, err := r.SeriesZoneBuckets(ctx, "FR75001", forecastBase, forecastBase.Add(time.Hour)); has || err != nil {
		t.Fatalf("partial series cluster: has=%v err=%v, want has=false", has, err)
	}
}

// seriesEngine is a memory-only engine with a series view, opened the
// way the server opens one.
func seriesEngine(t testing.TB) *storage.Local {
	t.Helper()
	l, err := storage.OpenLocal(storage.LocalOptions{Series: &storage.SeriesOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}
