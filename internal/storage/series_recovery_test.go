package storage

import (
	"context"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/series"
)

var recBase = time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

// genObsDocs builds seeded observation documents in the goflow ingest
// schema (sensedAt, spl, zone), out of time order.
func genObsDocs(seed int64, n int, spread time.Duration, zones []string) []Doc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Doc, n)
	for i := range docs {
		docs[i] = Doc{
			"sensedAt": recBase.Add(time.Duration(rng.Int63n(int64(spread)))),
			"spl":      20 + rng.Float64()*90,
			"zone":     zones[rng.Intn(len(zones))],
			"userId":   "anon",
		}
	}
	return docs
}

// naiveNoisemap recomputes per-zone aggregates from the documents in
// insert order with the series quantization — the ground truth a
// recovered series must reproduce.
func naiveNoisemap(docs []Doc) map[string]*series.Agg {
	out := map[string]*series.Agg{}
	for _, d := range docs {
		p, ok := series.PointFromObservation(d)
		if !ok {
			continue
		}
		a := out[p.Zone]
		if a == nil {
			a = &series.Agg{}
			out[p.Zone] = a
		}
		a.Add(series.Quantize(p.Value))
	}
	return out
}

// requireNoisemapMatches compares an engine's series answer for the
// whole time range against the ground truth: integer fields exact,
// float sums within accumulation-order rounding.
func requireNoisemapMatches(t *testing.T, e Engine, docs []Doc, label string) {
	t.Helper()
	sq, ok := e.(SeriesQuerier)
	if !ok {
		t.Fatalf("%s: engine has no series surface", label)
	}
	got, has, err := sq.SeriesNoisemap(context.Background(), recBase.Add(-time.Hour), recBase.Add(24*time.Hour))
	if err != nil || !has {
		t.Fatalf("%s: noisemap: has=%v err=%v", label, has, err)
	}
	want := naiveNoisemap(docs)
	if len(got) != len(want) {
		t.Fatalf("%s: zones: want %d, got %d", label, len(want), len(got))
	}
	for zone, wa := range want {
		ga, ok := got[zone]
		if !ok {
			t.Fatalf("%s: zone %q missing", label, zone)
		}
		if ga.Count != wa.Count || ga.Min != wa.Min || ga.Max != wa.Max || ga.Hist != wa.Hist {
			t.Fatalf("%s: zone %q integer-exact fields: want %+v, got %+v", label, zone, wa, &ga)
		}
		if rel := math.Abs(ga.Sum-wa.Sum) / math.Abs(wa.Sum); rel > 1e-9 {
			t.Fatalf("%s: zone %q sum relative error %g", label, zone, rel)
		}
	}
}

func seriesLocalOpts(dir string) LocalOptions {
	return LocalOptions{
		WALDir: dir,
		Series: &SeriesOptions{Options: series.Options{
			RollupBucket:   5 * time.Minute,
			MaxChunkPoints: 64,
		}},
	}
}

// TestSeriesRecoversFromWALReplay is the crash test: ingest through
// the engine, checkpoint mid-stream, keep ingesting, crash (no final
// checkpoint), reopen. WAL replay must re-feed exactly the tail above
// the series watermark, leaving rollups identical to the insert-order
// ground truth.
func TestSeriesRecoversFromWALReplay(t *testing.T) {
	dir := t.TempDir()
	zones := []string{"FR75001", "FR75002", "FR75003"}
	docs := genObsDocs(3, 500, 3*time.Hour, zones)

	l, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[:300] {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[300:] {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: close the WAL without checkpointing. The series dir still
	// holds the 300-point checkpoint; documents 301..500 exist only in
	// the log.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st, _ := re.SeriesStats(); st.Points != 500 {
		t.Fatalf("points after replay: want 500, got %d", st.Points)
	}
	requireNoisemapMatches(t, re, docs, "after crash recovery")

	// A second clean reopen must not double-apply anything.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if st, _ := re2.SeriesStats(); st.Points != 500 {
		t.Fatalf("points after clean reopen: want 500, got %d", st.Points)
	}
	requireNoisemapMatches(t, re2, docs, "after clean reopen")
}

// TestSeriesObservesWholeInsertManyBatch pins the batch-granularity
// contract: every document of an InsertMany — the whole batch shares
// one WAL LSN — must reach the rollups, both live and when the batch
// records come back via WAL replay after a crash. A per-document
// observer feed made the shared LSN look like a replay after the
// first document and silently dropped the rest of every batch; the
// naive ground truth here is computed from the documents themselves,
// so live, replay and rebuild cannot all agree by dropping the same
// points.
func TestSeriesObservesWholeInsertManyBatch(t *testing.T) {
	dir := t.TempDir()
	zones := []string{"FR75001", "FR75002", "FR75003"}
	docs := genObsDocs(21, 300, 2*time.Hour, zones)
	// Sprinkle in documents without a zone (a series point bucketed
	// under "") and without a sound level (not a series point at all):
	// batches that only partially map to points must still be absorbed
	// whole.
	for i := 0; i < len(docs); i += 17 {
		delete(docs[i], "zone")
	}
	for i := 5; i < len(docs); i += 29 {
		delete(docs[i], "spl")
	}
	points := 0
	for _, d := range docs {
		if _, ok := series.PointFromObservation(d); ok {
			points++
		}
	}

	l, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	insertBatches := func(l *Local, ds []Doc) {
		t.Helper()
		for i := 0; i < len(ds); {
			n := 2 + (i % 11)
			if i+n > len(ds) {
				n = len(ds) - i
			}
			if _, err := l.InsertMany("observations", ds[i:i+n]); err != nil {
				t.Fatal(err)
			}
			i += n
		}
	}
	insertBatches(l, docs[:150])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertBatches(l, docs[150:])
	if st, _ := l.SeriesStats(); st.Points != uint64(points) {
		t.Fatalf("live batched ingest: %d points in series, want %d", st.Points, points)
	}
	requireNoisemapMatches(t, l, docs, "live batched ingest")

	// Crash without a final checkpoint: the post-checkpoint batches
	// come back as whole OpInsertMany WAL records above the persisted
	// watermark.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st, _ := re.SeriesStats(); st.Points != uint64(points) {
		t.Fatalf("after batch replay: %d points in series, want %d", st.Points, points)
	}
	requireNoisemapMatches(t, re, docs, "after batch replay")
}

// TestSeriesRecoversFromTornCheckpoint injects a torn write into the
// series checkpoint (the crash landing mid-file): the interrupted
// checkpoint must not commit, and recovery — old manifest plus WAL
// replay of everything above the old watermark — must reproduce the
// ground truth exactly.
func TestSeriesRecoversFromTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	zones := []string{"a", "b"}
	docs := genObsDocs(5, 400, 2*time.Hour, zones)

	l, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[:200] {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[200:] {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Series().CheckpointVia(func(w io.Writer) io.Writer {
		return faults.NewSeededWriter(w, 17, 1, 2048)
	}); err == nil {
		t.Fatal("torn checkpoint reported success")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st, _ := re.SeriesStats(); st.Points != 400 {
		t.Fatalf("points: want 400, got %d", st.Points)
	}
	requireNoisemapMatches(t, re, docs, "after torn series checkpoint")
}

// TestSeriesBackfillWhenEnabledLate covers turning -series on over an
// existing deployment: the store has snapshot and WAL history but no
// series directory, so the view is backfilled from the recovered
// store and the watermark jumps to the log head.
func TestSeriesBackfillWhenEnabledLate(t *testing.T) {
	dir := t.TempDir()
	zones := []string{"z1", "z2"}
	docs := genObsDocs(9, 150, time.Hour, zones)

	// Generation 1: no series at all; checkpoint so later boots load a
	// snapshot (WAL truncated — replay alone cannot rebuild the view).
	l, err := OpenLocal(LocalOptions{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[:100] {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: series enabled. Fresh view over a loaded store →
	// backfill, then live appends on top.
	l2, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := l2.SeriesStats(); st.Points != 100 {
		t.Fatalf("backfilled points: want 100, got %d", st.Points)
	}
	for _, d := range docs[100:] {
		if _, err := l2.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	requireNoisemapMatches(t, l2, docs, "backfill + live ingest")
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: recovered series, no backfill repeat.
	l3, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if st, _ := l3.SeriesStats(); st.Points != 150 {
		t.Fatalf("points after recovery: want 150, got %d", st.Points)
	}
	requireNoisemapMatches(t, l3, docs, "recovered generation")
}

// TestSeriesRetentionThroughCheckpoint: with Retention configured,
// checkpoints age raw chunks out while bucket-aligned rollup answers
// hold steady.
func TestSeriesRetentionThroughCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := seriesLocalOpts(dir)
	opts.Series.Retention = time.Hour
	l, err := OpenLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// All observations are days in the past relative to the retention
	// clock (time.Now), so every sealed chunk ages out.
	docs := genObsDocs(13, 300, 2*time.Hour, []string{"old"})
	for _, d := range docs {
		if _, err := l.Insert("observations", d); err != nil {
			t.Fatal(err)
		}
	}
	// Bucket-aligned window, fewer buckets than the zone holds, so the
	// query walks the window deterministically and the float sums of
	// the before/after answers are comparable bit for bit.
	agg1, has, err := l.SeriesZoneAggregate(context.Background(), "old", recBase, recBase.Add(30*time.Minute))
	if err != nil || !has {
		t.Fatalf("pre-retention query: has=%v err=%v", has, err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := l.SeriesStats()
	if st.SealedChunks != 0 {
		t.Fatalf("retention left %d sealed chunks", st.SealedChunks)
	}
	agg2, _, err := l.SeriesZoneAggregate(context.Background(), "old", recBase, recBase.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if agg1.Count != agg2.Count || agg1.Sum != agg2.Sum || agg1.Hist != agg2.Hist {
		t.Fatalf("aligned rollup answer changed under retention: %+v vs %+v", agg1, agg2)
	}
}

// TestSeriesBackfillOf20kDocuments: a series enabled over a store of
// 20 000 observations — several of backfillSeries' pages — is
// backfilled with every point the documents carry, typed or not: a
// sensedAt held as an RFC 3339 string, an int spl and a missing zone
// take the general rules, and a document without spl gives no point.
func TestSeriesBackfillOf20kDocuments(t *testing.T) {
	dir := t.TempDir()
	docs := genObsDocs(20, 20_000, 20*time.Hour, []string{"z1", "z2", "z3"})
	for i, d := range docs {
		switch i % 97 {
		case 1:
			d["sensedAt"] = d["sensedAt"].(time.Time).Format(time.RFC3339Nano)
		case 2:
			d["spl"] = int(d["spl"].(float64))
		case 3:
			delete(d, "zone")
		case 4:
			delete(d, "spl")
		}
	}
	l, err := OpenLocal(LocalOptions{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(docs); off += 500 {
		body := make([]Doc, 500)
		for i := range body {
			body[i] = cloneDoc(docs[off+i])
		}
		if _, err := l.InsertMany("observations", body); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLocal(seriesLocalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var want uint64
	for _, d := range docs {
		if _, ok := series.PointFromObservation(d); ok {
			want++
		}
	}
	if st, _ := l2.SeriesStats(); st.Points != want {
		t.Fatalf("backfilled points: want %d, got %d", want, st.Points)
	}
	requireNoisemapMatches(t, l2, docs, "backfill of 20 000")
}

// cloneDoc copies a flat document.
func cloneDoc(d Doc) Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// TestSeriesObserverAllocs: the series observer reads each document's
// three fields typed, so feeding it an InsertMany of 50 observations
// costs the batch's allocations, not a box per field per document: the
// same InsertMany into a store without the series allocates at most
// 15 fewer times per batch (the slice of points and the series' own
// amortized growth), as many as when every number and time was boxed
// at rest.
func TestSeriesObserverAllocs(t *testing.T) {
	const runs = 20
	bodies := func() [][]Doc {
		out := make([][]Doc, runs+1)
		for r := range out {
			out[r] = make([]Doc, 50)
			for i := range out[r] {
				out[r][i] = recoverObservation(r*50 + i)
			}
		}
		return out
	}
	allocs := func(opts LocalOptions) float64 {
		l, err := OpenLocal(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		body, r := bodies(), 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := l.InsertMany("observations", body[r]); err != nil {
				t.Fatal(err)
			}
			r++
		})
	}
	// The first store to meet the documents' strings interns them; the
	// two measured meet them interned.
	allocs(LocalOptions{})
	got, base := allocs(LocalOptions{Series: &SeriesOptions{}}), allocs(LocalOptions{})
	t.Logf("an InsertMany of 50 allocates %.1f times with the series, %.1f without", got, base)
	if got-base > 15 {
		t.Errorf("the series observer costs %.1f allocations per batch of 50, want at most 15", got-base)
	}
}
