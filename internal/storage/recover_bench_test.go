package storage

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/wal"
)

// recoverObservation is a document shaped like the ones the ingest
// path stores (goflow.DataManager.toDocAnon).
func recoverObservation(i int) Doc {
	at := recBase.Add(time.Duration(i) * 1700 * time.Millisecond)
	return Doc{
		"appId":        "SC",
		"userId":       fmt.Sprintf("anon-%032x", i%200),
		"deviceModel":  fmt.Sprintf("Model-%d", i%23),
		"appVersion":   "1.3." + fmt.Sprint(i%4),
		"mode":         []string{"manual", "journey", "background"}[i%3],
		"spl":          40 + float64(i%400)/10,
		"activity":     []string{"still", "walking", "vehicle", "bicycle", "unknown"}[i%5],
		"activityConf": float64(i%100) / 100,
		"sensedAt":     at,
		"receivedAt":   at.Add(1500 * time.Millisecond),
		"localized":    true,
		"provider":     []string{"gps", "network", "fused"}[i%3],
		"lat":          48.8 + float64(i%1000)/1e4,
		"lon":          2.3 + float64(i%977)/1e4,
		"accuracyM":    5 + float64(i%60),
		"zone":         fmt.Sprintf("FR751%02d", i%20+1),
	}
}

// crashedObservationLog leaves in dir n observation-shaped documents
// logged perRecord to a WAL record and never checkpointed, under the
// ingest path's seven indexes and with the series view attached: with
// perRecord 500 it is what `dashboard-read` recovers from (REST bodies
// of 500), with 1 what the broker's ingest loop leaves (one Insert per
// observation). It returns the options that reopen it and the log's
// size.
func crashedObservationLog(tb testing.TB, dir string, n, perRecord int) (LocalOptions, uint64) {
	tb.Helper()
	opts := LocalOptions{WALDir: dir, Policy: wal.FsyncNone, Series: &SeriesOptions{}}
	l, err := OpenLocal(opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range []string{"deviceModel", "appId", "userId", "provider", "mode", "appVersion", "zone"} {
		l.EnsureIndex("observations", f)
	}
	for off := 0; off < n; off += perRecord {
		if perRecord == 1 {
			if _, err := l.Insert("observations", recoverObservation(off)); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		body := make([]Doc, perRecord)
		for i := range body {
			body[i] = recoverObservation(off + i)
		}
		if _, err := l.InsertMany("observations", body); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.WAL().Sync(); err != nil {
		tb.Fatal(err)
	}
	logBytes := l.WAL().Stats().Bytes
	if err := l.Close(); err != nil { // no checkpoint: the next open replays everything
		tb.Fatal(err)
	}
	return opts, logBytes
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ownProcess is the argument that tells a run of the test binary that
// inOwnProcess started it.
const ownProcess = "in-own-process"

// inOwnProcess reports whether the test runs in a process of its own.
// When it does not, it runs the test again in a new process of the
// same test binary, passes on that run's log and outcome, and returns
// false. How a document is stored depends on the intern tables, which
// are the process's: an earlier test that closed the table of one of
// an observation's fields would make every document weigh more. A
// measurement of resident bytes is made where no other test ran.
func inOwnProcess(t *testing.T) bool {
	t.Helper()
	if slices.Contains(flag.Args(), ownProcess) {
		return true
	}
	out, err := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v", "-test.count=1", ownProcess).CombinedOutput()
	t.Logf("in a process of its own:\n%s", out)
	if err != nil {
		t.Errorf("the run in a process of its own: %v", err)
	}
	return false
}

// TestResidentBytesPerDocument bounds what a recovered observation
// keeps resident — its stored form, its entry, its seven postings and
// its share of the series. As a map per document it was 1 560 B, most
// of it hash-table buckets; packed with a boxed value per field, 646;
// with its numbers and times as words, 491; with its enumerated
// strings as one-byte codes, 382 (amd64, Go 1.24). The bound is that
// plus 10 %. The test measures in a process of its own.
func TestResidentBytesPerDocument(t *testing.T) {
	if !inOwnProcess(t) {
		return
	}
	const n = 20_000
	opts, _ := crashedObservationLog(t, t.TempDir(), n, 500)
	before := liveHeap()
	l, err := OpenLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Stats("observations").Docs; got != n {
		t.Fatalf("recovered %d documents, want %d", got, n)
	}
	perDoc := residentPerDoc(t, l, before, n)
	t.Logf("%.0f B of live heap per recovered document", perDoc)
	if perDoc > 420 {
		t.Errorf("a recovered document keeps %.0f B resident, want at most 420", perDoc)
	}
}

// TestResidentBytesPerInsertedDocument is TestResidentBytesPerDocument
// for documents inserted live, through InsertMany in bodies of 50 as
// REST ingest stores them, from maps whose strings are boxed per
// document as goflow's ingest flattening boxes them. Before the store
// interned the strings of a live insert and kept its numbers and times
// as words, such a document kept 909 B resident, against 646 for a
// recovered one; then 506; with its enumerated strings as one-byte
// codes, 397 (amd64, Go 1.24). The bound is that plus 10 %. The test
// measures in a process of its own.
func TestResidentBytesPerInsertedDocument(t *testing.T) {
	if !inOwnProcess(t) {
		return
	}
	const n = 20_000
	before := liveHeap()
	l := insertedObservations(t, t.TempDir(), n)
	defer l.Close()
	perDoc := residentPerDoc(t, l, before, n)
	t.Logf("%.0f B of live heap per inserted document", perDoc)
	if perDoc > 437 {
		t.Errorf("an inserted document keeps %.0f B resident, want at most 437", perDoc)
	}
}

// residentPerDoc is the live heap l holds over before, per document of
// its n. A page is read and written out before the heap is: what a
// read leaves behind — the keys quoted on each shape, slots looked up
// per shape — is resident too, and is per shape, not per document.
func residentPerDoc(tb testing.TB, l *Local, before uint64, n int) float64 {
	tb.Helper()
	rows, err := l.FindRows(context.Background(), "observations", Doc{"zone": "FR75101"}, docstore.FindOptions{SortField: "sensedAt", Limit: 100})
	if err != nil || len(rows) != 100 {
		tb.Fatalf("page read: %d rows, %v", len(rows), err)
	}
	var page []byte
	for _, r := range rows {
		if page, err = r.AppendJSON(page, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return (float64(liveHeap()) - float64(before)) / float64(n)
}

// insertedObservations opens a Local in dir, with a WAL, the ingest
// path's seven indexes and the series view, and inserts n
// observation-shaped documents into it through InsertMany in bodies of
// 50, each string of each document boxed anew.
func insertedObservations(tb testing.TB, dir string, n int) *Local {
	tb.Helper()
	l, err := OpenLocal(LocalOptions{WALDir: dir, Policy: wal.FsyncNone, Series: &SeriesOptions{}})
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range []string{"deviceModel", "appId", "userId", "provider", "mode", "appVersion", "zone"} {
		l.EnsureIndex("observations", f)
	}
	for off := 0; off < n; off += 50 {
		body := make([]Doc, 50)
		for i := range body {
			d := recoverObservation(off + i)
			for k, v := range d {
				if s, ok := v.(string); ok {
					d[k] = strings.Clone(s)
				}
			}
			body[i] = d
		}
		if _, err := l.InsertMany("observations", body); err != nil {
			tb.Fatal(err)
		}
	}
	if got := l.Stats("observations").Docs; got != n {
		tb.Fatalf("inserted %d documents, want %d", got, n)
	}
	return l
}

// BenchmarkIngestResident is the live heap a store fed 50 000
// observations through InsertMany holds (see
// TestResidentBytesPerInsertedDocument): per document and in all.
func BenchmarkIngestResident(b *testing.B) {
	const n = 50_000
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		l := insertedObservations(b, b.TempDir(), n)
		perDoc := residentPerDoc(b, l, before, n)
		if i == b.N-1 {
			b.ReportMetric(perDoc, "B/doc")
			b.ReportMetric(perDoc*n/(1<<20), "live-MiB")
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover50k is crash recovery of 50 000 observation-shaped
// documents, never checkpointed, under the ingest path's seven indexes
// and with the series view attached: OpenLocal replays the log. Two
// log shapes: records=500 is the one `dashboard-read` sets up (REST
// bodies of 500, one record each), records=1 the broker path's (one
// record per observation), where the per-record costs of replay show.
// It reports documents per second, the log's bytes per document and
// the live heap a recovered engine holds.
func BenchmarkRecover50k(b *testing.B) {
	const n = 50_000
	for _, perRecord := range []int{500, 1} {
		b.Run(fmt.Sprintf("records=%d", perRecord), func(b *testing.B) {
			opts, logBytes := crashedObservationLog(b, b.TempDir(), n, perRecord)
			before := liveHeap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := OpenLocal(opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := r.Stats("observations").Docs; got != n {
					b.Fatalf("recovered %d documents, want %d", got, n)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(liveHeap()-before)/(1<<20), "live-MiB")
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(logBytes)/n, "logB/doc")
		})
	}
}
