package goflow

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
)

// TestNoisemapScanAndRollupAgree pins the identical-answers invariant
// the noisemap documents: the document-scan fallback and the series
// rollup path must return the same rows — same zone set, same
// statistics — so attaching a series engine changes a query's latency,
// never its answer. Observations without a location are the tricky
// case: series.PointFromObservation buckets them under zone "", and
// the scan must do the same rather than skip them.
func TestNoisemapScanAndRollupAgree(t *testing.T) {
	accounts := newAccounts(t)
	scanDM := NewDataManager(docstore.NewStore(), accounts, geo.ParisZones())

	rollupDM := NewDataManagerEngine(seriesEngine(t), accounts, geo.ParisZones())

	base := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		// Every third observation has no location, hence no zone field.
		o := obsAt(t, "M", 40+float64(i)*0.7, i%3 != 0, at)
		for _, dm := range []*DataManager{scanDM, rollupDM} {
			if _, err := dm.Ingest("SC", "c1", o, at); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	from, to := base.Add(-time.Hour), base.Add(2*time.Hour)
	scan, err := scanDM.Noisemap(ctx, from, to)
	if err != nil {
		t.Fatal(err)
	}
	rollup, err := rollupDM.Noisemap(ctx, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) == 0 || scan[0].Zone != "" {
		t.Fatalf("scan path must emit a %q row for zone-less observations, got %+v", "", scan)
	}
	if len(scan) != len(rollup) {
		t.Fatalf("zone sets differ: scan %d rows, rollup %d rows", len(scan), len(rollup))
	}
	for i := range scan {
		if scan[i].Source != "scan" || rollup[i].Source != "rollup" {
			t.Fatalf("sources: scan=%q rollup=%q", scan[i].Source, rollup[i].Source)
		}
		requireNoiseStatsClose(t, scan[i], rollup[i])
	}

	// The single-zone query agrees too, including for the "" zone.
	for _, zone := range []string{"", scan[len(scan)-1].Zone} {
		za, err := scanDM.ZoneNoise(ctx, zone, from, to)
		if err != nil {
			t.Fatal(err)
		}
		zb, err := rollupDM.ZoneNoise(ctx, zone, from, to)
		if err != nil {
			t.Fatal(err)
		}
		requireNoiseStatsClose(t, za, zb)
	}
}

// requireNoiseStatsClose asserts two answers for the same zone agree:
// order-insensitive fields (count, min, max, histogram percentiles)
// exactly, float aggregates within summation-order rounding — the
// rollup path sums per bucket and merges, the scan sums point by
// point, so the last ulp may differ.
func requireNoiseStatsClose(t *testing.T, a, b NoiseStats) {
	t.Helper()
	if a.Zone != b.Zone || a.Count != b.Count || a.Min != b.Min || a.Max != b.Max ||
		a.P50 != b.P50 || a.P95 != b.P95 {
		t.Fatalf("zone %q exact fields differ:\n scan:   %+v\n rollup: %+v", a.Zone, a, b)
	}
	closeEnough := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if !closeEnough(a.LAeq, b.LAeq) || !closeEnough(a.Mean, b.Mean) || !closeEnough(a.Stddev, b.Stddev) {
		t.Fatalf("zone %q float aggregates differ:\n scan:   %+v\n rollup: %+v", a.Zone, a, b)
	}
}
