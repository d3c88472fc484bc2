package series

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestZoneBucketsWindowedAndSorted(t *testing.T) {
	db := New(Options{RollupBucket: 5 * time.Minute})
	pts := genPoints(11, 4000, 3*time.Hour, []string{"a", "b"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	ctx := context.Background()
	from, to := testBase.Add(30*time.Minute), testBase.Add(2*time.Hour)
	got, err := db.ZoneBuckets(ctx, "a", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no buckets in a densely populated window")
	}
	bucketMs := (5 * time.Minute).Milliseconds()
	for i, b := range got {
		if b.Start < from.UnixMilli() || b.Start >= to.UnixMilli() {
			t.Fatalf("bucket %d start %d outside [%d, %d)", i, b.Start, from.UnixMilli(), to.UnixMilli())
		}
		if b.Start%bucketMs != 0 {
			t.Fatalf("bucket start %d not aligned to %d", b.Start, bucketMs)
		}
		if i > 0 && got[i-1].Start >= b.Start {
			t.Fatalf("buckets out of order at %d: %d then %d", i, got[i-1].Start, b.Start)
		}
		if b.Count == 0 {
			t.Fatalf("empty bucket %d materialized", i)
		}
		// Each bucket must equal the aligned single-bucket aggregate —
		// the rollup path both readers share.
		one, err := db.ZoneAggregate(ctx, "a",
			time.UnixMilli(b.Start), time.UnixMilli(b.Start+bucketMs))
		if err != nil {
			t.Fatal(err)
		}
		if b.Count != one.Count || b.Energy != one.Energy || b.LAeq() != one.LAeq() {
			t.Fatalf("bucket %d disagrees with ZoneAggregate over the same window", i)
		}
	}
}

func TestAllBucketsMatchesZoneBuckets(t *testing.T) {
	db := New(Options{RollupBucket: 5 * time.Minute})
	pts := genPoints(13, 6000, 4*time.Hour, []string{"x", "y", "z"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	ctx := context.Background()
	from, to := testBase, testBase.Add(4*time.Hour)
	all, err := db.AllBuckets(ctx, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("want 3 zones, got %d", len(all))
	}
	for zone, want := range all {
		got, err := db.ZoneBuckets(ctx, zone, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AllBuckets and ZoneBuckets disagree for %s", zone)
		}
	}
}

func TestZoneBucketsEmptyWindowAndZone(t *testing.T) {
	db := New(Options{})
	db.Append(1, Point{TS: testBase.UnixMilli(), Value: 60, Zone: "a"})
	ctx := context.Background()
	if bs, err := db.ZoneBuckets(ctx, "missing", testBase, testBase.Add(time.Hour)); err != nil || len(bs) != 0 {
		t.Fatalf("unknown zone: want empty, got %v err %v", bs, err)
	}
	if bs, err := db.ZoneBuckets(ctx, "a", testBase.Add(2*time.Hour), testBase.Add(time.Hour)); err != nil || len(bs) != 0 {
		t.Fatalf("inverted window: want empty, got %v err %v", bs, err)
	}
	m, err := db.AllBuckets(ctx, testBase.Add(6*time.Hour), testBase.Add(7*time.Hour))
	if err != nil || len(m) != 0 {
		t.Fatalf("empty window: want no zones, got %v err %v", m, err)
	}
}

func TestZoneBucketsCopiesAggregates(t *testing.T) {
	// The returned buckets must be snapshots: mutating the live view
	// after the read must not change what the caller holds.
	db := New(Options{})
	db.Append(1, Point{TS: testBase.UnixMilli(), Value: 60, Zone: "a"})
	bs, err := db.ZoneBuckets(context.Background(), "a", testBase, testBase.Add(time.Hour))
	if err != nil || len(bs) != 1 {
		t.Fatalf("want 1 bucket, got %v err %v", bs, err)
	}
	before := bs[0]
	db.Append(2, Point{TS: testBase.UnixMilli() + 1, Value: 90, Zone: "a"})
	if bs[0] != before {
		t.Fatal("bucket aliased the live rollup view")
	}
	if again, _ := db.ZoneBuckets(context.Background(), "a", testBase, testBase.Add(time.Hour)); len(again) != 1 || again[0].Count != 2 {
		t.Fatalf("the read after the append must see it: %+v", again)
	}
}

// TestBucketReadersAllocateTheirResultOnce: a Bucket is over half a
// kilobyte, so the readers size each zone's slice before filling it
// instead of growing it by doubling — a 3 h window over a long-lived
// zone, which is what every forecast sweep reads, is one allocation of
// exactly its buckets, and an empty window is none.
func TestBucketReadersAllocateTheirResultOnce(t *testing.T) {
	db := New(Options{RollupBucket: 5 * time.Minute})
	zones := []string{"a", "b", "c", "d", "e"}
	for i, p := range genPoints(19, 20000, 12*time.Hour, zones) {
		db.Append(uint64(i+1), p)
	}
	ctx := context.Background()
	from, to := testBase.Add(4*time.Hour), testBase.Add(7*time.Hour)
	got, err := db.ZoneBuckets(ctx, "a", from, to)
	if err != nil || len(got) != 36 || cap(got) != len(got) {
		t.Fatalf("3 h of a dense zone: %d buckets in a slice of %d (err %v), want 36 in 36", len(got), cap(got), err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = db.ZoneBuckets(ctx, "a", from, to) }); n != 1 {
		t.Errorf("ZoneBuckets over a zone with data: %v allocations, want 1", n)
	}
	empty := testBase.Add(20 * time.Hour)
	if n := testing.AllocsPerRun(20, func() { _, _ = db.ZoneBuckets(ctx, "a", empty, empty.Add(3*time.Hour)) }); n != 0 {
		t.Errorf("ZoneBuckets over an empty window: %v allocations, want 0", n)
	}
	// One slice per zone, plus the result map and its buckets.
	base := testing.AllocsPerRun(20, func() { _, _ = db.AllBuckets(ctx, empty, empty.Add(3*time.Hour)) })
	if n := testing.AllocsPerRun(20, func() { _, _ = db.AllBuckets(ctx, from, to) }); n > base+float64(len(zones))+2 {
		t.Errorf("AllBuckets over %d zones: %v allocations against %v for an empty window, want one more per zone", len(zones), n, base)
	}
}

func TestCheckpointRetentionUsesInjectedClock(t *testing.T) {
	// Retention at checkpoints must age data on the injected clock —
	// a simulated deployment runs months of simulated time in seconds
	// of wall time, and wall-clock retention would never fire.
	simNow := testBase.Add(24 * time.Hour)
	opts := Options{
		Dir:          t.TempDir(),
		chunkWindow:  time.Hour,
		RollupBucket: 5 * time.Minute,
		Retention:    2 * time.Hour,
		now:          func() time.Time { return simNow },
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := genPoints(17, 3000, 6*time.Hour, []string{"a", "b"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// All raw data is 18+ hours older than simNow-2h: every chunk
	// must be gone, and the floor must be simNow-2h — which only the
	// injected clock can have produced (wall time is years away).
	st := db.Stats()
	if want := simNow.Add(-2 * time.Hour).UnixMilli(); st.RetentionFloor != want {
		t.Fatalf("retention floor %d, want %d (injected clock)", st.RetentionFloor, want)
	}
	if st.SealedChunks != 0 {
		t.Fatalf("retention on the injected clock left %d chunks", st.SealedChunks)
	}
	// Rollups survive retention: aggregate answers are intact.
	if bs, err := db.ZoneBuckets(context.Background(), "a", testBase, testBase.Add(6*time.Hour)); err != nil || len(bs) == 0 {
		t.Fatalf("rollup buckets lost after retention: %v err %v", bs, err)
	}
}
