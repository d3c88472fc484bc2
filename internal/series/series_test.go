package series

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/faults"

	"github.com/urbancivics/goflow/internal/obs"
)

var testBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// genPoints produces a seeded out-of-order stream of n points over
// spread, across the given zones, values in [20, 110) dB.
func genPoints(seed int64, n int, spread time.Duration, zones []string) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			TS:    testBase.UnixMilli() + rng.Int63n(spread.Milliseconds()),
			Value: 20 + rng.Float64()*90,
			Zone:  zones[rng.Intn(len(zones))],
		}
	}
	return pts
}

// naiveRollups recomputes the continuous aggregates from a stream in
// arrival order with the same quantization Append applies — the
// ground truth the maintained rollups must match bit-for-bit.
func naiveRollups(pts []Point, bucket time.Duration) map[string]map[int64]*Agg {
	out := map[string]map[int64]*Agg{}
	for _, p := range pts {
		zm := out[p.Zone]
		if zm == nil {
			zm = map[int64]*Agg{}
			out[p.Zone] = zm
		}
		b := alignDown(p.TS, bucket.Milliseconds())
		a := zm[b]
		if a == nil {
			a = &Agg{}
			zm[b] = a
		}
		a.Add(Quantize(p.Value))
	}
	return out
}

// requireRollupsEqual asserts two rollup maps are bit-identical —
// float equality by ==, not epsilon.
func requireRollupsEqual(t *testing.T, want, got map[string]map[int64]*Agg, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: zone count: want %d, got %d", label, len(want), len(got))
	}
	for zone, wzm := range want {
		gzm := got[zone]
		if len(wzm) != len(gzm) {
			t.Fatalf("%s: zone %q bucket count: want %d, got %d", label, zone, len(wzm), len(gzm))
		}
		for b, wa := range wzm {
			ga := gzm[b]
			if ga == nil {
				t.Fatalf("%s: zone %q bucket %d missing", label, zone, b)
			}
			if *wa != *ga {
				t.Fatalf("%s: zone %q bucket %d: want %+v, got %+v", label, zone, b, *wa, *ga)
			}
		}
	}
}

// gobBytes is the payload a checkpoint writes for v, without the frame.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (db *DB) rollupsSnapshot() map[string]map[int64]*Agg {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]map[int64]*Agg, len(db.rollups))
	for z, zm := range db.rollups {
		dst := make(map[int64]*Agg, len(zm))
		for b, c := range zm {
			cp := c.agg()
			dst[b] = &cp
		}
		out[z] = dst
	}
	return out
}

// TestChunkWindowRoundedToBucketMultiple pins the alignment
// invariant Options documents: a chunkWindow that is not a multiple
// of RollupBucket (e.g. -rollup-interval 7m against the default 1h
// window) is rounded up so no rollup bucket can straddle two
// partitions, which retention's answers-never-change guarantee
// depends on.
func TestChunkWindowRoundedToBucketMultiple(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 7 * time.Minute})
	if want := 63 * time.Minute; db.opts.chunkWindow != want {
		t.Fatalf("chunkWindow: want %v, got %v", want, db.opts.chunkWindow)
	}
	if db.windowMs%db.bucketMs != 0 {
		t.Fatalf("window %dms is not a multiple of bucket %dms", db.windowMs, db.bucketMs)
	}
	// A bucket wider than the window swallows it whole.
	if db2 := New(Options{chunkWindow: time.Minute, RollupBucket: 5 * time.Minute}); db2.opts.chunkWindow != 5*time.Minute {
		t.Fatalf("chunkWindow: want 5m, got %v", db2.opts.chunkWindow)
	}
	// Already-aligned options are untouched.
	if db3 := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute}); db3.opts.chunkWindow != time.Hour {
		t.Fatalf("aligned chunkWindow changed: %v", db3.opts.chunkWindow)
	}
}

func TestChunkEncodeDecodeRoundTrip(t *testing.T) {
	part := alignDown(testBase.UnixMilli(), time.Hour.Milliseconds())
	b := newChunkBuilder(part)
	in := []Point{
		{TS: part + 1000, Value: Quantize(55.125), Zone: "FR75001"},
		{TS: part + 2000, Value: Quantize(55.13), Zone: "FR75001"},
		{TS: part + 1500, Value: Quantize(102.99), Zone: "FR75002"}, // out of order
		{TS: part, Value: Quantize(20.0), Zone: ""},                 // window start, empty zone
		{TS: part + 3_599_999, Value: Quantize(119.5), Zone: "FR75001"},
	}
	for _, p := range in {
		b.add(p)
	}
	ch := b.seal(0)
	if ch.Count != len(in) {
		t.Fatalf("count: want %d, got %d", len(in), ch.Count)
	}
	if ch.MinTS != part || ch.MaxTS != part+3_599_999 {
		t.Fatalf("ts bounds: got [%d, %d]", ch.MinTS, ch.MaxTS)
	}
	if ch.MinVal != 20.0 || ch.MaxVal != 119.5 {
		t.Fatalf("val bounds: got [%v, %v]", ch.MinVal, ch.MaxVal)
	}
	// Zone by zone in first-appearance order, each zone in append order.
	want := []Point{in[0], in[1], in[4], in[2], in[3]}
	var out []Point
	if err := ch.points(func(ts int64, v float64, zone string) {
		out = append(out, Point{TS: ts, Value: v, Zone: zone})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, out) {
		t.Fatalf("round trip:\nwant %+v\n got %+v", want, out)
	}
	if r := ch.run("FR75001"); r == nil || r.Count != 3 || r.MinTS != part+1000 || r.MaxTS != part+3_599_999 {
		t.Fatalf("FR75001 run: %+v", r)
	}
	if ch.run("FR75002") == nil || ch.run("FR75999") != nil {
		t.Fatal("run table wrong")
	}
	if ch.overlaps(part+4_000_000, part+5_000_000) {
		t.Fatal("overlaps past MaxTS")
	}
	if !ch.overlaps(part+1000, part+1001) {
		t.Fatal("misses covered range")
	}
	if r := ch.run("FR75002"); r.overlaps(part+1501, part+5_000_000) || !r.overlaps(part+1500, part+1501) {
		t.Fatal("run time bounds wrong")
	}

	// Through the file form and back: the same chunk.
	back, legacy, err := decodeChunkFile(gobBytes(t, ch.file()))
	if err != nil || legacy {
		t.Fatalf("file round trip: legacy %v, %v", legacy, err)
	}
	if !reflect.DeepEqual(back, ch) {
		t.Fatalf("file round trip:\nwant %+v\n got %+v", ch, back)
	}

	// A full chunk of the dashboard's shape: an hour of 150 zones plus
	// 56 % unlocalized points, out of order. It measures 5.7 bytes/point
	// (the interleaved stream, 6.7): a zone's timestamps lie minutes
	// apart, not a second, but no point carries a zone index.
	zones := make([]string, 150)
	for i := range zones {
		zones[i] = fmt.Sprintf("FR75%03d", i)
	}
	rng := rand.New(rand.NewSource(6))
	full := newChunkBuilder(part)
	for i := 0; i < 4096; i++ {
		z := ""
		if rng.Float64() >= 0.56 {
			z = zones[rng.Intn(len(zones))]
		}
		full.add(Point{TS: part + rng.Int63n(time.Hour.Milliseconds()), Value: Quantize(30 + rng.Float64()*60), Zone: z})
	}
	if bpp := float64(full.bytes()) / float64(full.Count); bpp > 6 {
		t.Fatalf("encoding too fat: %.2f bytes/point", bpp)
	}
}

func TestTruncatedChunkDataIsAnError(t *testing.T) {
	build := func() *Chunk {
		b := newChunkBuilder(0)
		for i := 0; i < 10; i++ {
			b.add(Point{TS: int64(i * 1000), Value: 50, Zone: []string{"z", "y"}[i%2]})
		}
		return b.seal(0)
	}
	ch := build()
	ch.Runs[1].Data = ch.Runs[1].Data[:len(ch.Runs[1].Data)-1]
	if err := ch.points(func(int64, float64, string) {}); err == nil {
		t.Fatal("truncated run decoded without error")
	}

	// A run table that disagrees with its bytes is refused by the file
	// reader, whichever way it disagrees.
	for name, mutate := range map[string]func(cf *chunkFile){
		"truncated data":    func(cf *chunkFile) { cf.Data = cf.Data[:len(cf.Data)-1] },
		"trailing byte":     func(cf *chunkFile) { cf.Data = append(cf.Data, 0) },
		"count too high":    func(cf *chunkFile) { cf.Runs[0].Count++ },
		"count too low":     func(cf *chunkFile) { cf.Runs[0].Count-- },
		"run longer":        func(cf *chunkFile) { cf.Runs[0].Len++ },
		"run past the end":  func(cf *chunkFile) { cf.Runs[1].Len += 100 },
		"negative length":   func(cf *chunkFile) { cf.Runs[0].Len = -1 },
		"run min ts":        func(cf *chunkFile) { cf.Runs[1].MinTS-- },
		"run max ts":        func(cf *chunkFile) { cf.Runs[0].MaxTS++ },
		"zone renamed":      func(cf *chunkFile) { cf.Runs[1].Zone = "z" },
		"chunk count":       func(cf *chunkFile) { cf.Count++ },
		"chunk max value":   func(cf *chunkFile) { cf.MaxVal = 51 },
		"legacy dictionary": func(cf *chunkFile) { cf.Zones = []string{"z"} },
		"non-canonical delta": func(cf *chunkFile) {
			cf.Data[0] |= 0x80
			cf.Data = append(cf.Data[:1], append([]byte{0}, cf.Data[1:]...)...)
			cf.Runs[0].Len++
		},
	} {
		cf := build().file()
		mutate(cf)
		if _, _, err := decodeChunkFile(gobBytes(t, cf)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAggMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = Quantize(10 + rng.Float64()*105)
	}
	var whole Agg
	for _, v := range vals {
		whole.Add(v)
	}
	var merged Agg
	for _, part := range [][]float64{vals[:1000], vals[1000:1100], vals[1100:]} {
		var a Agg
		for _, v := range part {
			a.Add(v)
		}
		merged.Merge(&a)
	}
	if whole.Count != merged.Count || whole.Min != merged.Min || whole.Max != merged.Max {
		t.Fatalf("count/min/max: %+v vs %+v", whole, merged)
	}
	if whole.Hist != merged.Hist {
		t.Fatal("histograms differ")
	}
	for name, pair := range map[string][2]float64{
		"sum":    {whole.Sum, merged.Sum},
		"sumsq":  {whole.SumSq, merged.SumSq},
		"energy": {whole.Energy, merged.Energy},
	} {
		if rel := math.Abs(pair[0]-pair[1]) / math.Abs(pair[0]); rel > 1e-12 {
			t.Fatalf("%s: relative error %g", name, rel)
		}
	}
}

func TestPercentileWithinBinWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 5000)
	var a Agg
	for i := range vals {
		vals[i] = Quantize(25 + rng.Float64()*80)
		a.Add(vals[i])
	}
	sort.Float64s(vals)
	for _, p := range []float64{5, 50, 95, 99} {
		rank := int(math.Ceil(p / 100 * float64(len(vals))))
		exact := vals[rank-1]
		got := a.Percentile(p)
		if math.Abs(got-exact) > HistBinWidth {
			t.Fatalf("p%v: exact %v, histogram %v (off by more than a bin)", p, exact, got)
		}
	}
	if a.Percentile(100) > a.Max+HistBinWidth/2 {
		t.Fatalf("p100 %v above max %v", a.Percentile(100), a.Max)
	}
}

// TestRollupsMatchNaiveRecomputation is the property test: the
// incrementally maintained rollups equal an arrival-order naive
// recomputation bit-for-bit, across chunk seal boundaries (tiny
// MaxChunkPoints) and out-of-order arrivals; window queries agree with
// a naive filter on every integer-exact field, within float rounding
// on the sums, and percentiles come from identical histograms.
func TestRollupsMatchNaiveRecomputation(t *testing.T) {
	zones := []string{"FR75001", "FR75002", "FR75003", "FR75004", ""}
	pts := genPoints(42, 20000, 6*time.Hour, zones)
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 64})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}

	requireRollupsEqual(t, naiveRollups(pts, 5*time.Minute), db.rollupsSnapshot(), "maintained vs naive")

	if st := db.Stats(); st.SealedChunks == 0 {
		t.Fatal("expected sealed chunks with MaxChunkPoints=64")
	}

	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		lo := testBase.Add(time.Duration(rng.Int63n(int64(5 * time.Hour))))
		hi := lo.Add(time.Duration(rng.Int63n(int64(2*time.Hour))) + time.Minute)
		if trial%3 == 0 {
			// Bucket-aligned window: pure rollup path.
			lo = lo.Truncate(5 * time.Minute)
			hi = hi.Truncate(5 * time.Minute)
		}
		zone := zones[rng.Intn(len(zones))]
		got, err := db.ZoneAggregate(ctx, zone, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var want Agg
		for _, p := range pts {
			if p.Zone == zone && p.TS >= lo.UnixMilli() && p.TS < hi.UnixMilli() {
				want.Add(Quantize(p.Value))
			}
		}
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || got.Hist != want.Hist {
			t.Fatalf("trial %d zone %q [%v, %v): integer-exact fields differ:\nwant %+v\ngot  %+v",
				trial, zone, lo, hi, want, got)
		}
		if want.Count > 0 {
			if rel := math.Abs(got.Sum-want.Sum) / math.Abs(want.Sum); rel > 1e-9 {
				t.Fatalf("trial %d: sum relative error %g", trial, rel)
			}
			if rel := math.Abs(got.Energy-want.Energy) / want.Energy; rel > 1e-9 {
				t.Fatalf("trial %d: energy relative error %g", trial, rel)
			}
			if got.Percentile(95) != want.Percentile(95) {
				t.Fatalf("trial %d: p95 %v vs %v from identical histograms", trial, got.Percentile(95), want.Percentile(95))
			}
		}
	}

	// Noisemap agrees with per-zone aggregation over one window.
	lo, hi := testBase.Add(30*time.Minute+17*time.Second), testBase.Add(4*time.Hour+11*time.Minute)
	m, err := db.Noisemap(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, zone := range zones {
		var want Agg
		for _, p := range pts {
			if p.Zone == zone && p.TS >= lo.UnixMilli() && p.TS < hi.UnixMilli() {
				want.Add(Quantize(p.Value))
			}
		}
		got := m[zone]
		if got.Count != want.Count || got.Hist != want.Hist {
			t.Fatalf("noisemap zone %q: count %d vs %d", zone, got.Count, want.Count)
		}
	}
}

func TestChunkSkippingPrunesOutOfRangeChunks(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 32})
	reg := obs.NewRegistry()
	db.Instrument(reg)
	pts := genPoints(5, 4000, 4*time.Hour, []string{"a", "b"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	// Unaligned sliver inside one bucket: pure edge scan, and only the
	// chunks of one partition window can overlap it.
	lo := testBase.Add(time.Hour + time.Minute)
	if _, err := db.ZoneAggregate(context.Background(), "a", lo, lo.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("series_chunks_scanned_total", "").Value() == 0 {
		t.Fatal("edge scan decoded nothing")
	}
	if reg.Counter("series_chunks_skipped_total", "").Value() == 0 {
		t.Fatal("sparse index skipped nothing — pruning is not happening")
	}
}

func TestQueryHonorsContextCancellation(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 16})
	pts := genPoints(9, 2000, time.Hour, []string{"a"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Unaligned window forces an edge scan over many chunks; the
	// cancelled context must surface as an error.
	if _, err := db.ZoneAggregate(ctx, "a", testBase.Add(time.Second), testBase.Add(59*time.Minute)); err == nil {
		t.Fatal("cancelled context did not abort the scan")
	}
}

func TestRetentionKeepsRollupAnswers(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 64})
	pts := genPoints(21, 8000, 6*time.Hour, []string{"x", "y", "z"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	ctx := context.Background()
	// A bucket-aligned window answered purely from rollups, placed in
	// the half that retention will age out.
	lo, hi := testBase.Add(time.Hour), testBase.Add(2*time.Hour)
	before, err := db.Noisemap(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := testBase.Add(4 * time.Hour)
	dropped := db.ApplyRetention(cutoff)
	if dropped == 0 {
		t.Fatal("retention dropped nothing")
	}
	after, err := db.Noisemap(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("aligned rollup answers changed under retention:\nbefore %+v\nafter  %+v", before, after)
	}
	if st := db.Stats(); st.RetentionFloor != cutoff.UnixMilli() {
		t.Fatalf("retention floor: want %d, got %d", cutoff.UnixMilli(), st.RetentionFloor)
	}
}

func TestPersistCheckpointOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 64}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := genPoints(33, 5000, 3*time.Hour, []string{"p", "q", ""})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st1, st2 := db.Stats(), db2.Stats()
	if st1.Points != st2.Points || st1.SealedChunks != st2.SealedChunks || st1.Watermark != st2.Watermark {
		t.Fatalf("stats after reopen: %+v vs %+v", st1, st2)
	}
	requireRollupsEqual(t, db.rollupsSnapshot(), db2.rollupsSnapshot(), "reopened rollups")

	// Replays at or below the watermark are dropped; fresh LSNs land.
	db2.Append(1, pts[0])
	if db2.Stats().Points != st1.Points {
		t.Fatal("replayed LSN was not skipped")
	}
	more := genPoints(34, 1000, 3*time.Hour, []string{"p", "q"})
	for i, p := range more {
		db2.Append(uint64(len(pts)+i+1), p)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireRollupsEqual(t, naiveRollups(append(append([]Point{}, pts...), more...), 5*time.Minute),
		db3.rollupsSnapshot(), "second generation")
	if db3.Stats().Watermark != uint64(len(pts)+len(more)) {
		t.Fatalf("watermark: want %d, got %d", len(pts)+len(more), db3.Stats().Watermark)
	}
}

func TestCorruptRollupsFileRebuildsFromChunks(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 64}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := genPoints(55, 4000, 2*time.Hour, []string{"a", "b", "c"})
	for i, p := range pts {
		db.Append(uint64(i+1), p)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "rollups-*.gob"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("rollups file: %v, %v", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("corrupt rollups must rebuild, not fail: %v", err)
	}
	// The rebuild walks chunks in append order, so it is bit-identical
	// to both the maintained rollups and the naive recomputation.
	requireRollupsEqual(t, db.rollupsSnapshot(), db2.rollupsSnapshot(), "rebuilt rollups")
}

// TestTornCheckpointRecovery sweeps crash points through a checkpoint
// write: whatever byte the torn write lands on, reopening must
// succeed and yield exactly the last committed checkpoint's state —
// rollups bit-identical to the arrival-order recomputation of the
// first watermark points.
func TestTornCheckpointRecovery(t *testing.T) {
	zones := []string{"m", "n", ""}
	pts := genPoints(77, 1000, 2*time.Hour, zones)
	first, rest := pts[:600], pts[600:]
	for _, budget := range []int{0, 1, 17, 256, 1024, 4096, 16384, 1 << 20} {
		dir := t.TempDir()
		opts := Options{Dir: dir, chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 64}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range first {
			db.Append(uint64(i+1), p)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i, p := range rest {
			db.Append(uint64(len(first)+i+1), p)
		}
		tornErr := db.CheckpointVia(func(w io.Writer) io.Writer {
			return faults.NewWriter(w, budget)
		})

		re, err := Open(opts)
		if err != nil {
			t.Fatalf("budget %d: reopen after torn checkpoint: %v", budget, err)
		}
		wm := re.Stats().Watermark
		if tornErr == nil && wm != uint64(len(pts)) {
			t.Fatalf("budget %d: checkpoint succeeded but watermark %d != %d", budget, wm, len(pts))
		}
		if wm != uint64(len(first)) && wm != uint64(len(pts)) {
			t.Fatalf("budget %d: watermark %d is neither checkpoint", budget, wm)
		}
		requireRollupsEqual(t, naiveRollups(pts[:wm], 5*time.Minute), re.rollupsSnapshot(),
			"recovered state at watermark")
		if re.Stats().Points != wm {
			t.Fatalf("budget %d: points %d != watermark %d", budget, re.Stats().Points, wm)
		}
	}
}

func TestPointFromObservation(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	p, ok := PointFromObservation(map[string]any{"sensedAt": at, "spl": 63.4, "zone": "FR75007"})
	if !ok || p.TS != at.UnixMilli() || p.Value != 63.4 || p.Zone != "FR75007" {
		t.Fatalf("got %+v, %v", p, ok)
	}
	if _, ok := PointFromObservation(map[string]any{"spl": 63.4}); ok {
		t.Fatal("accepted a document without sensedAt")
	}
	if _, ok := PointFromObservation(map[string]any{"sensedAt": at}); ok {
		t.Fatal("accepted a document without spl")
	}
	p, ok = PointFromObservation(map[string]any{"sensedAt": at.Format(time.RFC3339Nano), "spl": 50})
	if !ok || p.Zone != "" || p.TS != at.UnixMilli() {
		t.Fatalf("string time / int spl: %+v, %v", p, ok)
	}
}
