package series

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestCellSize pins the cell to one 64-byte allocation class.
func TestCellSize(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != 64 {
		t.Fatalf("cell is %d bytes, want 64", n)
	}
}

// cellStream draws a seeded value stream of n values: mostly inside the
// histogram range, some below 0, at or above 120, and on exact bin
// edges, each quantized as Append quantizes it.
func cellStream(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	center := rng.Float64() * 120
	for i := range out {
		v := center + (rng.Float64()-0.5)*20
		switch rng.Intn(10) {
		case 0:
			v = -rng.Float64() * 40
		case 1:
			v = 120 + rng.Float64()*40
		case 2:
			v = float64(rng.Intn(121)) // a bin edge, 120 included
		case 3:
			v = []float64{0, -0.01, 119.99, 120, 1e300, -1e300}[rng.Intn(6)]
		}
		out[i] = Quantize(v)
	}
	return out
}

// cellFixtures is a pool of streams: inline (1–8 values), spilled
// (9–500), the empty one and one a NaN reached after Min/Max were set.
func cellFixtures() [][]float64 {
	rng := rand.New(rand.NewSource(39))
	pool := [][]float64{nil, {math.NaN()}, {61, math.NaN(), 70}}
	for i := 0; i < 100; i++ {
		pool = append(pool, cellStream(rng, 1+rng.Intn(cellInline)))
	}
	for i := 0; i < 60; i++ {
		pool = append(pool, cellStream(rng, cellInline+1+rng.Intn(492)))
	}
	poisoned := cellStream(rng, 20)
	poisoned[11] = math.NaN()
	return append(pool, poisoned)
}

func buildCell(vs []float64) (*cell, Agg) {
	var c cell
	var a Agg
	for _, v := range vs {
		c.add(v)
		a.Add(v)
	}
	return &c, a
}

// TestCellAddMatchesAgg: a cell fed a stream expands to the Agg fed the
// same stream, floats by bit pattern, and spills exactly once, on the
// value past its inline capacity.
func TestCellAddMatchesAgg(t *testing.T) {
	for i, vs := range cellFixtures() {
		var c cell
		var a Agg
		spills := 0
		for j, v := range vs {
			if c.add(v) {
				spills++
				if j != cellInline {
					t.Fatalf("stream %d: spilled at value %d, want %d", i, j, cellInline)
				}
			}
			a.Add(v)
			if got := c.agg(); !sameBits(&got, &a) {
				t.Fatalf("stream %d after %d values:\n got  %+v\n want %+v", i, j+1, got, a)
			}
		}
		if want := len(vs) > cellInline; (spills == 1) != want || spills > 1 || (c.hist != nil) != want {
			t.Fatalf("stream %d of %d values: %d spills, dense %v", i, len(vs), spills, c.hist != nil)
		}
	}
}

// TestCellMergeMatchesAgg: merging a cell into an Agg, empty or not, is
// Agg.Merge of what the cell stands for — including the trusted-bin
// rule for a NaN sum and for Min/Max that do not order.
func TestCellMergeMatchesAgg(t *testing.T) {
	fixtures := cellFixtures()
	var cells []*cell
	var aggs []Agg
	for _, vs := range fixtures {
		c, a := buildCell(vs)
		cells, aggs = append(cells, c), append(aggs, a)
	}
	// Hand-built operands a stream cannot make: unordered or NaN bounds
	// beside bins they do not cover, inline and dense.
	nan, inf := math.NaN(), math.Inf(1)
	for _, mm := range [][2]float64{{nan, 50}, {50, nan}, {inf, -inf}, {70, 30}, {40, 60}} {
		for _, n := range []uint64{3, 12} {
			a := Agg{Count: n, Sum: 600, SumSq: 30000, Energy: 12e5, Min: mm[0], Max: mm[1]}
			a.Hist[0] += uint32(n - 2)
			a.Hist[55]++
			a.Hist[119]++
			cells, aggs = append(cells, cellOf(&a)), append(aggs, a)
		}
	}
	targets := []Agg{{}}
	for _, k := range []int{3, 40, 90} {
		_, a := buildCell(fixtures[k])
		targets = append(targets, a)
	}
	for i, c := range cells {
		for j, into := range targets {
			got, want := into, into
			c.mergeInto(&got)
			want.Merge(&aggs[i])
			if !sameBits(&got, &want) {
				t.Fatalf("cell %d into target %d:\n got  %+v\n want %+v", i, j, got, want)
			}
		}
	}
}

// TestCellOfRoundTrips: a loaded Agg comes back exactly, whether its
// histogram fits inline, is dense, or does not add up to its Count.
func TestCellOfRoundTrips(t *testing.T) {
	var aggs []Agg
	for _, vs := range cellFixtures() {
		_, a := buildCell(vs)
		aggs = append(aggs, a)
	}
	odd := []Agg{
		{Count: 3, Sum: 180, Min: 60, Max: 60},                     // no bins at all
		{Count: 2, Sum: 1, Hist: [HistBins]uint32{5: 1}},           // one short
		{Count: 8, Hist: [HistBins]uint32{0: 4, 119: 5}},           // one over the inline capacity
		{Count: 0, Sum: 7, Hist: [HistBins]uint32{10: 1}},          // bins without a count
		{Count: 1, Hist: [HistBins]uint32{3: math.MaxUint32}},      // far more bins than its Count
		{Count: 9, Sum: 90, Hist: [HistBins]uint32{10: 9}},         // dense, and honest
		{Count: 8, Sum: 80, Hist: [HistBins]uint32{10: 4, 119: 4}}, // inline, exactly full
	}
	for i, a := range append(aggs, odd...) {
		c := cellOf(&a)
		if got := c.agg(); !sameBits(&got, &a) {
			t.Fatalf("agg %d:\n got  %+v\n want %+v", i, got, a)
		}
		if inline := c.hist == nil; inline && (a.Count > cellInline || histTotal(&a) != a.Count) {
			t.Fatalf("agg %d went inline with Σ Hist %d, Count %d", i, histTotal(&a), a.Count)
		}
	}
}

// TestRollupBytesCountsSpills: Stats prices a cell per bucket plus a
// dense histogram per spilled one, and the spill count follows the
// rollups through a reload, a rebuild from chunks and a reset.
func TestRollupBytesCountsSpills(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	at := testBase.UnixMilli()
	for i := 0; i < 2*cellInline+1; i++ {
		// Zone A takes cellInline points, B the rest: one inline cell,
		// one spilled.
		zone := "A"
		if i >= cellInline {
			zone = "B"
		}
		db.Append(uint64(i+1), Point{TS: at + int64(i), Value: 50 + float64(i), Zone: zone})
	}
	const want = 2*64 + HistBins*4
	check := func(label string, db *DB, want int64) {
		t.Helper()
		if got := db.Stats().RollupBytes; got != want {
			t.Fatalf("%s: RollupBytes %d, want %d", label, got, want)
		}
	}
	check("appended", db, want)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", re, want)

	paths, err := filepath.Glob(filepath.Join(dir, "rollups-*.gob"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("rollups file: %v, %v", paths, err)
	}
	if err := os.WriteFile(paths[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	check("rebuilt", rebuilt, want)
	if err := rebuilt.ResetTo(0); err != nil {
		t.Fatal(err)
	}
	check("reset", rebuilt, 0)
}

// denseSum is the pre-cell answer for an aligned [af, at): zm's Aggs
// merged dense, tiered as sumRollupsLocked tiers them — the buckets
// before the first whole window, each whole window summed on its own,
// the buckets after the last.
func denseSum(zm map[int64]Agg, af, at, bucketMs, windowMs int64) Agg {
	var sum Agg
	mergeRange := func(into *Agg, lo, hi int64) {
		for b := lo; b < hi; b += bucketMs {
			if a, ok := zm[b]; ok {
				into.Merge(&a)
			}
		}
	}
	w0, w1 := alignUp(af, windowMs), alignDown(at, windowMs)
	if w0 >= w1 {
		w0, w1 = at, at
	}
	mergeRange(&sum, af, w0)
	for w := w0; w < w1; w += windowMs {
		var win Agg
		mergeRange(&win, w, w+windowMs)
		sum.Merge(&win)
	}
	mergeRange(&sum, w1, at)
	return sum
}

// frame wraps a payload the way writeGobFrame does.
func frame(body []byte) []byte {
	out := append([]byte{}, frameMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// FuzzRollupsFile frames arbitrary bytes as the rollups file of a
// checkpoint whose chunks are sound, then opens it. Open must never
// fail or panic over that file. When the bytes decode as the epoch's
// rollups, every zone answer and the noisemap over aligned windows must
// equal a dense merge of the decoded Aggs, bit for bit; otherwise Open
// rebuilds the rollups from the chunks, and the answers are those of
// the rollups the checkpoint wrote.
func FuzzRollupsFile(f *testing.F) {
	src := f.TempDir()
	opts := Options{Dir: src, chunkWindow: time.Hour, RollupBucket: 5 * time.Minute}
	db, err := Open(opts)
	if err != nil {
		f.Fatal(err)
	}
	db.AppendBatch(1, genPoints(11, 400, 3*time.Hour, []string{"FR75001", "FR75002", ""}))
	if err := db.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	var man manifest
	if err := readGobFrame(filepath.Join(src, manifestName), &man); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{manifestName, man.RollupsFile} {
		files[name] = nil
	}
	for _, ref := range man.Chunks {
		files[filepath.Join(chunksDir, ref.file())] = nil
	}
	for name := range files {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = raw
	}
	written, err := readRollups(filepath.Join(src, man.RollupsFile), man.Epoch)
	if err != nil {
		f.Fatal(err)
	}
	body, err := readFrame(filepath.Join(src, man.RollupsFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	nan, inf := math.NaN(), math.Inf(1)
	at := testBase.UnixMilli()
	f.Add(gobBytes(f, rollupFile{Epoch: man.Epoch, Rollups: map[string]map[int64]Agg{
		"odd": {
			at:          {Count: 3, Sum: nan, Min: 60, Max: 40, Hist: [HistBins]uint32{0: 1, 50: 2}},
			at + 300000: {Count: 2, Sum: 1, Min: 30, Max: 80, Hist: [HistBins]uint32{119: 2}},
			at + 600000: {Count: 12, Sum: 1, Min: -inf, Max: inf, Hist: [HistBins]uint32{7: 3}},
			at + 7:      {Count: 1, Sum: 5, Min: 5, Max: 5, Hist: [HistBins]uint32{5: 1}},
		},
	}}))
	f.Add(gobBytes(f, rollupFile{Epoch: man.Epoch + 1, Rollups: written}))

	bucketMs, windowMs := opts.RollupBucket.Milliseconds(), opts.chunkWindow.Milliseconds()
	windows := [][2]int64{
		{at, at + bucketMs},
		{at + bucketMs, at + 11*bucketMs},
		{at, at + 24*windowMs},
		{at - 50*windowMs, at + 50*windowMs},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, chunksDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, raw := range files {
			if name == man.RollupsFile {
				raw = frame(body)
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := readRollups(filepath.Join(dir, man.RollupsFile), man.Epoch)
		if err != nil {
			want = written
		}
		got, err := Open(Options{Dir: dir, chunkWindow: opts.chunkWindow, RollupBucket: opts.RollupBucket})
		if err != nil {
			t.Fatalf("Open over a rollups file: %v", err)
		}
		ctx := context.Background()
		for _, w := range windows {
			from, to := time.UnixMilli(w[0]), time.UnixMilli(w[1])
			city, err := got.Noisemap(ctx, from, to)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for zone, zm := range want {
				a := denseSum(zm, w[0], w[1], bucketMs, windowMs)
				z, err := got.ZoneAggregate(ctx, zone, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(&z, &a) {
					t.Fatalf("zone %q over %v:\n got  %+v\n want %+v", zone, w, z, a)
				}
				if a.Count == 0 {
					continue
				}
				rows++
				if row := city[zone]; !sameBits(&row, &a) {
					t.Fatalf("noisemap row %q over %v:\n got  %+v\n want %+v", zone, w, row, a)
				}
			}
			if len(city) != rows {
				t.Fatalf("noisemap over %v has %d rows, want %d", w, len(city), rows)
			}
		}
	})
}

// TestRollupsFileClaimsNoMoreThanItHolds: a rollups file whose map
// claims far more entries than it carries is refused before anything
// is sized by the claim.
func TestRollupsFileClaimsNoMoreThanItHolds(t *testing.T) {
	payload := gobBytes(t, rollupFile{Epoch: 1, Rollups: map[string]map[int64]Agg{"zzzz": {5: {Count: 1}}}})
	// The stream is length-prefixed messages; the last one is the value,
	// where the zone name is followed by its bucket map's entry count.
	var msgs [][]byte
	for rest := payload; len(rest) > 0; {
		n, k := gobUint(rest)
		msgs, rest = append(msgs, rest[k:k+int(n)]), rest[k+int(n):]
	}
	value := msgs[len(msgs)-1]
	at := bytes.Index(value, []byte("\x04zzzz\x01"))
	if at < 0 {
		t.Fatalf("no zone entry in %x", value)
	}
	// 1<<20 entries, ~37 MB of map if believed.
	value = append(append(append([]byte{}, value[:at+5]...), 0xfd, 0x10, 0x00, 0x00), value[at+6:]...)
	var forged []byte
	for _, m := range msgs[:len(msgs)-1] {
		forged = append(appendGobUint(forged, uint64(len(m))), m...)
	}
	forged = append(appendGobUint(forged, uint64(len(value))), value...)

	path := filepath.Join(t.TempDir(), "rollups.gob")
	if err := os.WriteFile(path, frame(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readRollups(path, 1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a map claiming 1<<20 entries and holding one was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the file allocated %d bytes", grew)
	}
}

// gobUint reads one gob-encoded unsigned integer, returning it and its
// length in bytes.
func gobUint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := 256 - int(b[0])
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// appendGobUint appends x as gob encodes an unsigned integer.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	i := 0
	for be[i] == 0 {
		i++
	}
	return append(append(b, byte(256-(8-i))), be[i:]...)
}

// TestCheckpointUnderAppends checkpoints while an appender keeps
// spilling cells and bumping their dense histograms in place (-race):
// a checkpoint expands its copy of the cells after releasing the lock,
// so it must have copied the spilled arrays too. Reopened, the last
// checkpoint holds the rollups exactly.
func TestCheckpointUnderAppends(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := genPoints(3, 6000, 30*time.Minute, []string{"FR75001", "FR75002"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, p := range pts {
			db.Append(uint64(i+1), p)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireRollupsEqual(t, db.rollupsSnapshot(), re.rollupsSnapshot(), "reopened after checkpoints under appends")
}
