package goflow

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/storage"
)

// TestLiveMetricsExposition checks the live_* families flow into
// /metrics: delivery/drop/shed counters from the broker fan-out
// hooks, the connected-sockets gauge and catch-up counter from the
// hub, and the fan-out latency histogram.
func TestLiveMetricsExposition(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(store),
		// Buffer 1 with an instant budget: the second undrained event
		// drops and sheds, exercising every counter.
		Live: LiveConfig{Buffer: 1, SendBudget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	handler := NewInstrumentedHTTPHandler(server, reg)

	// One delivered event, one dropped + shed on a never-draining sub.
	sub, err := server.Live.Subscribe([]string{"SC.#"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.PublishAt(GoFlowExchange, "SC.c1.obs.Z1", nil, []byte("a"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.PublishAt(GoFlowExchange, "SC.c1.obs.Z1", nil, []byte("b"), time.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("expected the stalled subscription to be shed")
	}
	// A stream handler releases its subscription on the way out; do
	// the same so the gauge reads zero.
	server.Live.Release(sub)

	// One cursor catch-up read (recorder is fine: not a stream).
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/apps/SC/observations?cursor=", nil))
	if rec.Code != 200 {
		t.Fatalf("cursor read = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"live_connected_sockets 0", // shed released the only sub
		"live_delivered_total 1",
		"live_dropped_total 1",
		"live_shed_total 1",
		"live_fanout_duration_seconds_count 2",
		"live_cursor_catchup_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLiveSSEThroughInstrumentedHandler streams SSE through
// NewInstrumentedHTTPHandler — the handler goflow-server mounts — not
// the bare one: the obs status recorder must pass each flush through
// and count the stream as a 2xx once it ends.
func TestLiveSSEThroughInstrumentedHandler(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		t.Fatal(err)
	}
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
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, reg))
	t.Cleanup(func() {
		ts.Close()
		server.Shutdown()
		broker.Close()
	})

	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC")
	publishLiveObs(t, broker, cl, "FR75013", 55)
	if ev := stream.recv(t); ev.App != "SC" || ev.Zone != "FR75013" {
		t.Fatalf("sse event = %+v", ev)
	}

	// The request is counted when its handler returns, i.e. once the
	// client has hung up.
	stream.Close()
	want := `http_requests_total{route="GET /v1/live/sse",class="2xx"} 1`
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(text), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %s", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
