package docstore

import (
	"context"
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

var readPathSink int

// BenchmarkReadPath times the three document reads the REST API serves
// from the observations collection — a sorted page, a count and a
// cursor page, each for one {appId, zone} — against a 50 k-document
// store, rotating over the zones so both the heavy head and the light
// tail of the skew are read.
func BenchmarkReadPath(b *testing.B) {
	col, zones := observationStore(b, 50_000, productionIndexes)
	ctx := context.Background()
	filter := func(i int) Doc { return Doc{"appId": "SC", "zone": zones[i%len(zones)]} }

	b.Run("find_page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			docs, err := col.FindContext(ctx, filter(i), FindOptions{SortField: "sensedAt", Limit: 100})
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += len(docs)
		}
	})
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := col.CountContext(ctx, filter(i))
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += n
		}
	})
	b.Run("cursor_page", func(b *testing.B) {
		// Each read is a zone's second page: it resumes after an anchor
		// in the middle of the collection, as a page walk does.
		anchors := make([]string, len(zones))
		for i := range zones {
			first, err := col.FindAfterContext(ctx, "", filter(i), 50)
			if err != nil || len(first) != 50 {
				b.Fatalf("first page of %s: %d docs, %v", zones[i], len(first), err)
			}
			anchors[i] = first[49][IDField].(string)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			docs, err := col.FindAfterContext(ctx, anchors[i%len(zones)], filter(i), 50)
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += len(docs)
		}
	})
}
