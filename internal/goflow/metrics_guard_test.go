package goflow

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestGuardAndFlowMetricsExposition checks the overload-protection
// families flow into /metrics: guard_* from admission decisions,
// mq_flow_* from queue watermark transitions and
// mq_dropped_overflow_total from MaxLen drops.
func TestGuardAndFlowMetricsExposition(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(store),
		admission: AdmissionConfig{
			ratePerDevice: 1,
			rateBurst:     1,
		},
	})
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

	// One admitted query, one admitted ingest, one rate-limited ingest.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/apps/SC/observations", nil))
	if rec.Code != 200 {
		t.Fatalf("query = %d", rec.Code)
	}
	o := obsAt(t, "A", 50, false, time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
	post := func() int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/apps/SC/observations",
			jsonBody(t, sensing.IngestBody{ClientID: "c", Observations: []*sensing.Observation{o}}))
		req.Header.Set("X-Device-ID", "dev-1")
		handler.ServeHTTP(rec, req)
		return rec.Code
	}
	if got := post(); got != 201 {
		t.Fatalf("first ingest = %d, want 201", got)
	}
	if got := post(); got != 429 {
		t.Fatalf("second ingest = %d, want 429", got)
	}

	// Flow + overflow traffic on the broker side.
	if err := broker.DeclareExchange("x", mq.Direct); err != nil {
		t.Fatal(err)
	}
	if err := broker.DeclareQueue("flowq", mq.QueueOptions{HighWatermark: 2}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("flowq", "x", "flow"); err != nil {
		t.Fatal(err)
	}
	if err := broker.DeclareQueue("overq", mq.QueueOptions{MaxLen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("overq", "x", "over"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := broker.PublishAt("x", "flow", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
		if _, err := broker.PublishAt("x", "over", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`guard_admitted_total{class="ingest"} 1`,
		`guard_admitted_total{class="query"} 1`,
		`guard_rejected_total{class="ingest",reason="rate_limited"} 1`,
		`guard_latency_seconds_count{class="query"} 1`,
		`guard_inflight{class="ingest"} 0`,
		`guard_p99_seconds`,
		`guard_breaker_state 0`,
		`mq_flow_paused_total{queue="other"} 1`,
		`mq_flow_paused 1`,
		`mq_dropped_overflow_total{queue="other"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
