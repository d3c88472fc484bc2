package series

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// naiveAnswer recomputes, from the raw stream, what ZoneAggregate and
// zone's Noisemap row answer over [lo, hi): the bucket-aligned core from
// per-bucket aggregates built in append order, merged as the window
// memo merges them (the ragged buckets one by one, each whole partition
// window summed bucket by bucket first), then each sub-bucket edge's
// points added window by window in time order, in append order within
// a window.
func naiveAnswer(pts []Point, buckets map[int64]*Agg, zone string, lo, hi, bucketMs, windowMs int64) Agg {
	var a Agg
	edge := func(lo, hi int64) {
		for w := alignDown(lo, windowMs); w < hi; w += windowMs {
			for _, p := range pts {
				if p.Zone == zone && p.TS >= max(lo, w) && p.TS < min(hi, w+windowMs) {
					a.Add(Quantize(p.Value))
				}
			}
		}
	}
	af, at := alignUp(lo, bucketMs), alignDown(hi, bucketMs)
	if af >= at {
		edge(lo, hi)
		return a
	}
	merge := func(into *Agg, b int64) {
		if x := buckets[b]; x != nil {
			into.Merge(x)
		}
	}
	w0, w1 := alignUp(af, windowMs), alignDown(at, windowMs)
	if w0 >= w1 {
		w0, w1 = at, at
	}
	for b := af; b < w0; b += bucketMs {
		merge(&a, b)
	}
	for w := w0; w < w1; w += windowMs {
		var sum Agg
		for b := w; b < w+windowMs; b += bucketMs {
			merge(&sum, b)
		}
		a.Merge(&sum)
	}
	for b := w1; b < at; b += bucketMs {
		merge(&a, b)
	}
	edge(lo, af)
	edge(at, hi)
	return a
}

// TestEdgeAnswersMatchNaiveRecomputation holds every unaligned answer
// to the raw stream, floats by ==: seeded out-of-order points over
// several zones (the unlocalized "" among them), chunks small enough
// that sealed and active ones mix, and ranges under one bucket,
// straddling partition windows and wider than the data — before and
// after a checkpoint and reopen.
func TestEdgeAnswersMatchNaiveRecomputation(t *testing.T) {
	zones := []string{"FR75001", "FR75002", "FR75003", "FR75004", ""}
	const spread = 6 * time.Hour
	pts := genPoints(61, 12000, spread, zones)
	opts := Options{Dir: t.TempDir(), chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 53}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	bucketMs, windowMs := db.bucketMs, db.windowMs
	rollups := naiveRollups(pts, opts.RollupBucket)

	rng := rand.New(rand.NewSource(62))
	base := testBase.UnixMilli()
	ranges := make([][2]int64, 0, 200)
	for i := 0; i < cap(ranges); i++ {
		var lo, hi int64
		switch i % 4 {
		case 0: // under one bucket
			lo = base + rng.Int63n(spread.Milliseconds())
			hi = lo + 1 + rng.Int63n(bucketMs)
		case 1: // straddling a window boundary, under two buckets
			w := base + windowMs*(1+rng.Int63n(5))
			lo, hi = w-1-rng.Int63n(bucketMs), w+1+rng.Int63n(bucketMs)
		case 2: // unaligned, up to three windows
			lo = base + rng.Int63n(spread.Milliseconds())
			hi = lo + 1 + rng.Int63n(3*windowMs)
		case 3: // wider than the data on at least one side
			lo = base - rng.Int63n(2*windowMs)
			hi = base + spread.Milliseconds() + rng.Int63n(2*windowMs) - rng.Int63n(4*windowMs)
		}
		ranges = append(ranges, [2]int64{lo, hi})
	}

	check := func(db *DB, label string) {
		t.Helper()
		ctx := context.Background()
		for _, r := range ranges {
			from, to := time.UnixMilli(r[0]), time.UnixMilli(r[1])
			m, err := db.Noisemap(ctx, from, to)
			if err != nil {
				t.Fatal(err)
			}
			for _, zone := range zones {
				want := naiveAnswer(pts, rollups[zone], zone, r[0], r[1], bucketMs, windowMs)
				got, err := db.ZoneAggregate(ctx, zone, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: zone %q [%d, %d): ZoneAggregate\nwant %+v\n got %+v", label, zone, r[0], r[1], want, got)
				}
				row, ok := m[zone]
				if ok != (want.Count > 0) || row != want {
					t.Fatalf("%s: zone %q [%d, %d): Noisemap row (present %v)\nwant %+v\n got %+v", label, zone, r[0], r[1], ok, want, row)
				}
			}
		}
	}
	st := db.Stats()
	if st.SealedChunks == 0 || st.SealedChunks*opts.MaxChunkPoints == len(pts) {
		t.Fatalf("want sealed and active chunks mixed: %+v", st)
	}
	check(db, "live")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	check(re, "reopened")
}

// TestStraddlingEdgeHasOneAnswer pins a range shorter than two buckets
// across a partition boundary — 10:58:30 to 11:01:30 — to one answer:
// the two partitions' points are added in time order, not in map
// iteration order, so 500 identical calls agree bit for bit with each
// other and with the recomputation from the stream.
func TestStraddlingEdgeHasOneAnswer(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute})
	boundary := testBase.Add(11 * time.Hour)
	lo, hi := boundary.Add(-90*time.Second), boundary.Add(90*time.Second)
	rng := rand.New(rand.NewSource(3))
	var pts []Point
	for i := 0; i < 400; i++ {
		pts = append(pts, Point{
			TS:    lo.UnixMilli() + rng.Int63n(hi.Sub(lo).Milliseconds()),
			Value: 30 + rng.Float64()*60,
			Zone:  "FR75001",
		})
		db.Append(uint64(i+1), pts[i])
	}
	want := naiveAnswer(pts, naiveRollups(pts, 5*time.Minute)["FR75001"], "FR75001",
		lo.UnixMilli(), hi.UnixMilli(), db.bucketMs, db.windowMs)
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		got, err := db.ZoneAggregate(ctx, "FR75001", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		m, err := db.Noisemap(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || m["FR75001"] != want {
			t.Fatalf("call %d: sum %v / %v, energy %v / %v; want %v, %v",
				i, got.Sum, m["FR75001"].Sum, got.Energy, m["FR75001"].Energy, want.Sum, want.Energy)
		}
	}
}
