package docstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// productionIndexes are the fields goflow.NewDataManagerEngine indexes
// on the observations collection.
var productionIndexes = []string{"deviceModel", "appId", "userId", "provider", "mode", "appVersion", "zone"}

// observationStore builds a collection of n observation-shaped
// documents under the given indexes: one app, 400 contributors of whom
// "u000" owns every 25th document, and 64 zones drawn from a Zipf
// distribution so a few zones hold thousands of documents and the tail
// a few dozen. It returns the zones that hold at least a page (100) of
// documents. The same n gives the same documents, ids aside.
func observationStore(tb testing.TB, n int, indexes []string) (*Collection, []string) {
	tb.Helper()
	col := NewStore().Collection("observations")
	for _, f := range indexes {
		col.EnsureIndex(f)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 4, 63)
	perZone := make(map[string]int)
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]Doc, 0, 50)
	for i := 0; i < n; i++ {
		zone := fmt.Sprintf("z%02d", zipf.Uint64())
		perZone[zone]++
		at := t0.Add(time.Duration(rng.Intn(86400)) * time.Second)
		user := 1 + rng.Intn(399)
		if i%25 == 0 {
			user = 0
		}
		batch = append(batch, Doc{
			"appId":        "SC",
			"userId":       fmt.Sprintf("u%03d", user),
			"deviceModel":  fmt.Sprintf("model-%d", rng.Intn(20)),
			"appVersion":   fmt.Sprintf("1.%d", rng.Intn(4)),
			"mode":         "opportunistic",
			"spl":          40 + 40*rng.Float64(),
			"activity":     "still",
			"activityConf": 0.9,
			"sensedAt":     at,
			"receivedAt":   at.Add(time.Second),
			"localized":    true,
			"provider":     "gps",
			"lat":          48.8 + rng.Float64()/10,
			"lon":          2.3 + rng.Float64()/10,
			"accuracyM":    12.0,
			"zone":         zone,
		})
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := col.InsertMany(batch); err != nil {
				tb.Fatal(err)
			}
			batch = make([]Doc, 0, 50)
		}
	}
	var zones []string
	for z := 0; z < 64; z++ {
		if name := fmt.Sprintf("z%02d", z); perZone[name] >= 100 {
			zones = append(zones, name)
		}
	}
	return col, zones
}

// ObservationStore and ProductionIndexes hand the store to
// BenchmarkReadPath, which lives in the external test package
// (readpath_page_bench_test.go) because it writes pages out through the
// REST layer's page writer, and internal/goflow imports this package.
var (
	ObservationStore  = observationStore
	ProductionIndexes = productionIndexes
)
