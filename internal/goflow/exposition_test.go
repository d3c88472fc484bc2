package goflow

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden from this run")

// expositionOwnProcess marks the re-executed run of
// TestMetricsExpositionGolden: message ids and the intern tables are
// the process's, and the wire bytes of a delivery carry its id, so the
// scenario runs in a process no other test has touched.
const expositionOwnProcess = "exposition-own-process"

// TestMetricsExpositionGolden drives one scripted scenario through an
// instrumented server over its real wire and REST surfaces and compares
// the final /metrics exposition with a golden: the family set, every
// HELP and TYPE line, every label set, every counter value and every
// histogram _count. Gauges, sums and buckets are timing and are
// compared by presence only.
//
// The scenario: wire publishes (a batch among them) with an unroutable
// key and a body the ingest loop rejects, a client queue overflowed by
// one, a nack, a client logged out mid-way, a REST ingest, a
// checkpoint, two series queries and a zone forecast. Logging the
// client out must not move any counter backwards.
func TestMetricsExpositionGolden(t *testing.T) {
	if !slices.Contains(flag.Args(), expositionOwnProcess) {
		args := []string{"-test.run=^" + t.Name() + "$", "-test.count=1", "-test.v"}
		if *updateExposition {
			args = append(args, "-update-exposition")
		}
		out, err := exec.Command(os.Args[0], append(args, expositionOwnProcess)...).CombinedOutput()
		if err != nil {
			t.Fatalf("the run in a process of its own: %v\n%s", err, out)
		}
		return
	}
	got, pre := runExpositionScenario(t)
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := addSetupEvents(t, string(raw), pre)
	if got != want {
		t.Errorf("exposition differs from %s (-want +got):\n%s", golden, lineDiff(want, got))
	}
}

// setupEvents are the events a layer counted before Instrument attached
// the registry — NewServer provisions the broker topology and journals
// its collection setup — keyed by the counter they land in. The layers
// count from their own creation, so those events are part of what
// /metrics reads; the golden holds only what the scenario itself did.
type setupEvents map[string]uint64

// addSetupEvents returns the golden with each setup count added to the
// value of its series.
func addSetupEvents(t *testing.T, golden string, pre setupEvents) string {
	t.Helper()
	lines := strings.Split(golden, "\n")
	for series, n := range pre {
		found := false
		for i, l := range lines {
			name, value, ok := strings.Cut(l, " ")
			if !ok || name != series {
				continue
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("golden %q: %v", l, err)
			}
			lines[i] = name + " " + strconv.FormatUint(v+n, 10)
			found = true
		}
		if !found {
			t.Fatalf("golden has no series %q", series)
		}
	}
	return strings.Join(lines, "\n")
}

func runExpositionScenario(t *testing.T) (string, setupEvents) {
	// The clock is fixed, and every time the scenario stores or asks
	// for is aligned to it, so chunks, rollups, forecasts and the bytes
	// the WAL writes are the same on every run.
	now := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	base := now.Add(-time.Hour)
	local, err := storage.OpenLocal(storage.LocalOptions{
		WALDir: t.TempDir(),
		Policy: wal.FsyncAlways,
		Series: &storage.SeriesOptions{Options: series.Options{RollupBucket: 5 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	broker := mq.NewBroker()
	mqServer, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{
		Broker:  broker,
		Data:    local,
		Clock:   simclock.NewSim(now),
		Predict: &predict.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		mqServer.Close()
		broker.Close()
		if err := local.Close(); err != nil {
			t.Error(err)
		}
	})
	pre := setupEventsBeforeInstrument(broker, local.WAL())
	reg := obs.NewRegistry()
	m := Instrument(reg, server, local.Store())
	m.InstrumentWAL(local.WAL())
	m.InstrumentSeries(local.Series())
	handler := NewInstrumentedHTTPHandler(server, reg)

	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	a, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Channels.Subscribe("SC", b.ID, "feedback", "ZZ"); err != nil {
		t.Fatal(err)
	}
	zone := geo.ParisZones().ZoneID(geo.Point{Lat: 48.8566, Lon: 2.3522})
	obsKey := "SC." + a.ID + ".obs." + zone
	encode := func(i int) []byte {
		body, err := obsAt(t, "LGE NEXUS 5", 55+float64(i), true, base.Add(time.Duration(i)*5*time.Minute)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// Over the wire: four observations one by one, two more as a
	// batch, a key the client's binding filters out, and a body the
	// ingest loop rejects.
	conn, err := mq.Dial(mqServer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 4; i++ {
		if _, err := conn.PublishAt(a.Exchange, obsKey, nil, encode(i), base.Add(time.Duration(i)*5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	batch := []mq.PublishItem{
		{RoutingKey: obsKey, Body: encode(4), At: base.Add(20 * time.Minute)},
		{RoutingKey: obsKey, Body: encode(5), At: base.Add(25 * time.Minute)},
	}
	if _, err := conn.PublishBatch(a.Exchange, batch); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.PublishAt(a.Exchange, "SC.someone-else.obs."+zone, nil, encode(0), base); err != nil || n != 0 {
		t.Fatalf("unroutable publish = %d, %v", n, err)
	}
	if _, err := conn.PublishAt(a.Exchange, obsKey, nil, []byte("not an observation"), base); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// B's queue holds 10 000 messages; one more drops the oldest. Then
	// a consumer of it nacks one delivery without requeue.
	feedback := make([]mq.PublishItem, 10001)
	for i := range feedback {
		feedback[i] = mq.PublishItem{RoutingKey: "SC." + a.ID + ".feedback.ZZ", Body: []byte(`{"n":1}`), At: base}
	}
	if _, err := broker.PublishBatch(a.Exchange, feedback); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	consumer, err := broker.Consume(b.Queue, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := <-consumer.C()
	if err := consumer.Nack(d.Tag, false); err != nil {
		t.Fatal(err)
	}
	consumer.Cancel()

	// Logging B out deletes its exchange and queue; what they counted
	// stays counted.
	before := scrapeCounters(t, reg)
	if err := server.Logout(b.ID); err != nil {
		t.Fatal(err)
	}
	after := scrapeCounters(t, reg)
	for series, v := range before {
		if after[series] < v {
			t.Errorf("%s went from %d to %d when a client logged out", series, v, after[series])
		}
	}

	// REST: an ingest of two observations, a checkpoint, then reads
	// over the series and a forecast of the zone.
	body := sensing.IngestBody{ClientID: a.ID, Observations: []*sensing.Observation{
		obsAt(t, "SAMSUNG SM-G900F", 70, true, base.Add(30*time.Minute)),
		obsAt(t, "SAMSUNG SM-G900F", 71, true, base.Add(35*time.Minute)),
	}}
	raw, err := body.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	rangeQ := "?from=" + base.Format(time.RFC3339) + "&to=" + now.Format(time.RFC3339)
	for _, req := range []struct {
		method, path string
		body         []byte
		code         int
	}{
		{"POST", "/v1/apps/SC/observations", raw, 201},
		{"CHECKPOINT", "", nil, 0},
		{"GET", "/v1/apps/SC/noisemap" + rangeQ, nil, 200},
		{"GET", "/v1/apps/SC/zones/" + zone + "/noise" + rangeQ, nil, 200},
		{"GET", "/v1/zones/" + zone + "/forecast", nil, 200},
	} {
		if req.method == "CHECKPOINT" {
			if err := local.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body)))
		if rec.Code != req.code {
			t.Fatalf("%s %s = %d, want %d: %s", req.method, req.path, rec.Code, req.code, rec.Body)
		}
	}

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	return normalizeExposition(t, out.String()), pre
}

// setupEventsBeforeInstrument reads what the broker and the WAL have
// counted before the registry is attached.
func setupEventsBeforeInstrument(b *mq.Broker, w *wal.WAL) setupEvents {
	bs, ws := b.Stats(), w.Stats()
	return setupEvents{
		"mq_route_cache_invalidations_total": bs.RouteCacheInvalidations,
		"wal_records_total":                  ws.Records,
		"wal_bytes_total":                    ws.Bytes,
		"wal_fsyncs_total":                   ws.Fsyncs,
	}
}

// normalizeExposition keeps what the golden pins: HELP and TYPE lines
// verbatim, every sample's series, and the value of counters and of
// histogram _count series. Other values read "*".
func normalizeExposition(t *testing.T, text string) string {
	t.Helper()
	kinds := map[string]string{}
	var out strings.Builder
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				kinds[f[2]] = f[3]
			}
			out.WriteString(line + "\n")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		series, value := line[:i], line[i+1:]
		name, _, _ := strings.Cut(series, "{")
		keep := kinds[name] == "counter" ||
			(strings.HasSuffix(name, "_count") && kinds[strings.TrimSuffix(name, "_count")] == "histogram")
		if !keep {
			value = "*"
		}
		fmt.Fprintf(&out, "%s %s\n", series, value)
	}
	return out.String()
}

// scrapeCounters reads every counter series of reg.
func scrapeCounters(t *testing.T, reg *obs.Registry) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, l := range strings.Split(normalizeExposition(t, buf.String()), "\n") {
		series, value, ok := strings.Cut(l, " ")
		if !ok || strings.HasPrefix(l, "#") || value == "*" {
			continue
		}
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		out[series] = v
	}
	return out
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			out.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			out.WriteString("+ " + l + "\n")
		}
	}
	return out.String()
}
