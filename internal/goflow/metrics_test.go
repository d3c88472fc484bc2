package goflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

func TestExchangeAndQueueClasses(t *testing.T) {
	cases := []struct{ name, exClass, qClass string }{
		{"GFX", "goflow", "other"},
		{"GF", "app", "goflow"},
		{"E.client42", "client", "other"},
		{"Q.client42", "app", "client"},
		{"loc.FR75013", "location", "other"},
		{"SC", "app", "other"},
	}
	for _, c := range cases {
		if got := exchangeClass(c.name); got != c.exClass {
			t.Errorf("exchangeClass(%q) = %q, want %q", c.name, got, c.exClass)
		}
		if got := queueClass(c.name); got != c.qClass {
			t.Errorf("queueClass(%q) = %q, want %q", c.name, got, c.qClass)
		}
	}
}

// TestMetricsEndToEnd drives an observation through the full pipeline
// — REST login, broker publish, ingest, REST retrieval — and checks
// that every layer shows up in the /metrics exposition.
func TestMetricsEndToEnd(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	handler := NewInstrumentedHTTPHandler(server, reg)

	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	o := obsAt(t, "LGE NEXUS 5", 63, true, time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC))
	body, err := o.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "obs", "FR75013")
	if _, err := broker.PublishAt(cl.Exchange, key, nil, body, o.SensedAt); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Two instrumented REST hits against different apps: same route
	// label for both.
	for _, app := range []string{"SC", "Other"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/apps/"+app+"/observations", nil))
	}

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		// Broker layer: the publish fanned out through the client,
		// app, goflow and (absent) location exchanges.
		`mq_published_total{exchange="client"} 1`,
		`mq_enqueued_total{queue="goflow"} 1`,
		`mq_acked_total{queue="goflow"} 1`,
		`mq_queue_ready{queue="goflow"} 0`,
		// Store layer: the ingest inserted, the REST queries hit
		// FindIDs.
		`docstore_op_duration_seconds_count{collection="observations",op="insert"} 1`,
		`docstore_op_duration_seconds_bucket{collection="observations",op="query",le="+Inf"}`,
		// Ingest pipeline.
		`goflow_ingested_total{app="SC"} 1`,
		// HTTP layer: both apps collapse into the route pattern.
		`http_requests_total{route="GET /v1/apps/{app}/observations",class="2xx"} 2`,
		`http_request_duration_seconds_count{route="GET /v1/apps/{app}/observations"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "/v1/apps/SC/") {
		t.Error("raw URL leaked into metric labels")
	}

	// The JSON view decodes and carries the same families.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics.json = %d", rec.Code)
	}
	var snap struct {
		Families []obs.FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	names := map[string]bool{}
	for _, f := range snap.Families {
		names[f.Name] = true
	}
	for _, want := range []string{"mq_published_total", "docstore_op_duration_seconds", "http_requests_total"} {
		if !names[want] {
			t.Errorf("metrics.json missing family %q", want)
		}
	}
}

// TestRouteCacheMetricsExposition checks the broker route-cache
// counters flow through the hook adapter into /metrics: repeated
// publishes on one key read as one miss plus hits, and the topology
// provisioning shows up as invalidations.
func TestRouteCacheMetricsExposition(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	handler := NewInstrumentedHTTPHandler(server, reg)

	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "obs", "FR75013")
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := broker.PublishAt(cl.Exchange, key, nil, []byte("{}"), at); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"mq_route_cache_misses_total 1",
		"mq_route_cache_hits_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Provisioning the app and client topology flushed the cache at
	// least once; the exact count tracks declare/bind operations.
	if strings.Contains(text, "mq_route_cache_invalidations_total 0") ||
		!strings.Contains(text, "mq_route_cache_invalidations_total") {
		t.Errorf("/metrics should report nonzero invalidations; got:\n%s",
			grepLines(text, "route_cache"))
	}
}

// TestFormatMetricsExposition checks the read-format counters: records
// and snapshots the store read back before the registry existed show
// up on the first scrape, under the format they were in, and a second
// scrape does not count them again. Beside them sit docstore_shapes,
// the process's shape count (at least the one these documents have),
// and docstore_intern_closed_fields, the fields whose codes ran out (at
// least the one this test closes).
func TestFormatMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	src := docstore.NewStore()
	docstore.AttachWAL(src, w)
	for i := 0; i < 3; i++ {
		if _, err := src.Collection("c").Insert(docstore.Doc{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	store := docstore.NewStore()
	if err := store.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := docstore.RecoverWAL(store, w); err != nil {
		t.Fatal(err)
	}
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	// A field of this test's own meets one value more than its table
	// codes. The intern tables are the process's: a second run of the
	// test finds the field closed already.
	wide := docstore.NewStore().Collection("wide")
	for i := 0; i <= 256; i++ {
		if _, err := wide.Insert(docstore.Doc{"closedByFormatMetricsTest": fmt.Sprint("v", i)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	if docstore.ShapeCount() == 0 {
		t.Fatal("no shape registered by a store that holds documents")
	}
	if docstore.InternClosedFields() == 0 {
		t.Fatal("no closed field after one field met 257 values")
	}
	for scrape := 0; scrape < 2; scrape++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`docstore_wal_decoded_records_total{format="bin1"} 3`,
			`docstore_wal_decoded_records_total{format="gob"} 0`,
			`docstore_snapshots_restored_total{format="bin1"} 1`,
			`docstore_snapshots_restored_total{format="gob"} 0`,
			fmt.Sprintf("docstore_shapes %d\n", docstore.ShapeCount()),
			fmt.Sprintf("docstore_intern_closed_fields %d\n", docstore.InternClosedFields()),
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("scrape %d: /metrics missing %q; got:\n%s", scrape, want, grepLines(buf.String(), "docstore_"))
			}
		}
	}
}

// TestWindowMemoMetricsExposition checks series_window_memo_total: both
// results are exposed from the first scrape, a day-wide read fills the
// windows it spans once and hits them afterwards, and a late point
// makes exactly its own window fill again — the ratio that tells an
// operator late uploads are churning old hours.
func TestWindowMemoMetricsExposition(t *testing.T) {
	db := series.New(series.Options{})
	reg := obs.NewRegistry()
	db.Instrument(reg)
	expect := func(step string, hit, fill int) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`series_window_memo_total{result="hit"} %d`+"\n", hit),
			fmt.Sprintf(`series_window_memo_total{result="fill"} %d`+"\n", fill),
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: /metrics missing %q; got:\n%s", step, want, grepLines(buf.String(), "series_window_memo"))
			}
		}
	}
	expect("before any read", 0, 0)

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 6; h++ {
		db.Append(uint64(h+1), series.Point{TS: base.Add(time.Duration(h) * time.Hour).UnixMilli(), Value: 60, Zone: "z"})
	}
	day := func() {
		t.Helper()
		if _, err := db.Noisemap(context.Background(), base, base.Add(24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	day()
	expect("first day read", 0, 6)
	day()
	expect("second day read", 6, 6)
	db.Append(7, series.Point{TS: base.Add(2*time.Hour + time.Minute).UnixMilli(), Value: 70, Zone: "z"})
	day()
	expect("after a late point", 11, 7)
}

// TestEdgePointsMetricsExposition checks series_edge_points_total: both
// results are exposed from the first scrape, an aligned read decodes
// nothing, and an unaligned one-zone read decodes that zone's run only —
// the other zone's points in the same partition are never counted.
func TestEdgePointsMetricsExposition(t *testing.T) {
	db := series.New(series.Options{})
	reg := obs.NewRegistry()
	db.Instrument(reg)
	expect := func(step string, decoded, kept int) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`series_edge_points_total{result="decoded"} %d`+"\n", decoded),
			fmt.Sprintf(`series_edge_points_total{result="kept"} %d`+"\n", kept),
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: /metrics missing %q; got:\n%s", step, want, grepLines(buf.String(), "series_edge_points"))
			}
		}
	}
	expect("before any read", 0, 0)

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < 10; m++ {
		at := base.Add(time.Duration(m) * time.Minute).UnixMilli()
		db.Append(uint64(2*m+1), series.Point{TS: at, Value: 60, Zone: "a"})
		db.Append(uint64(2*m+2), series.Point{TS: at, Value: 70, Zone: "b"})
	}
	read := func(from, to time.Time) {
		t.Helper()
		if _, err := db.ZoneAggregate(context.Background(), "a", from, to); err != nil {
			t.Fatal(err)
		}
	}
	read(base, base.Add(time.Hour))
	expect("aligned read", 0, 0)
	// [00:02:30, 00:12:30): the left edge decodes zone a's run (10
	// points) and keeps minutes 3 and 4; the right edge [10:00, 12:30)
	// misses the run's time bounds and decodes nothing.
	read(base.Add(150*time.Second), base.Add(750*time.Second))
	expect("unaligned read", 10, 2)
}

// grepLines returns the lines of s containing substr (test-failure
// diagnostics).
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
