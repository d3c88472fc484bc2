package goflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
)

// admClock is a mutable fake clock shared by the guard chain.
type admClock struct {
	mu sync.Mutex
	t  time.Time
}

func newAdmClock() *admClock {
	return &admClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *admClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newGuardedServer(t *testing.T, admission AdmissionConfig) (*Server, *httptest.Server) {
	t.Helper()
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{
		Broker:    broker,
		Data:      storage.NewLocal(docstore.NewStore()),
		admission: admission,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(ts.Close)
	return server, ts
}

func TestIngestEndpointStoresBatch(t *testing.T) {
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	req := sensing.IngestBody{
		ClientID:     "phone-1",
		Observations: []*sensing.Observation{obsAt(t, "A", 55, true, at), obsAt(t, "B", 60, false, at)},
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	if body["stored"] != float64(2) {
		t.Fatalf("stored = %v, want 2", body["stored"])
	}
	n, err := server.Data.Count(t.Context(), Query{AppID: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count after ingest = %d, want 2", n)
	}

	// Unknown app.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/nope/observations", req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown app ingest = %d, want 404", resp.StatusCode)
	}
	// Missing fields.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations", sensing.IngestBody{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest = %d, want 400", resp.StatusCode)
	}
}

// TestIngestRejectsTrailingData: a body is one JSON value. Two bodies
// sent back to back, or one followed by garbage, are a bad request and
// store nothing — not the first value stored and the rest dropped.
func TestIngestRejectsTrailingData(t *testing.T) {
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	one, err := json.Marshal(map[string]any{"clientId": "phone-1", "observations": []*sensing.Observation{obsAt(t, "A", 55, true, at)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"two bodies":       append(append([]byte(nil), one...), one...),
		"trailing garbage": append(append([]byte(nil), one...), "garbage"...),
	} {
		resp, err := http.Post(ts.URL+"/v1/apps/SC/observations", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n, _ := server.Data.Count(t.Context(), Query{AppID: "SC"}); n != 0 {
		t.Fatalf("rejected bodies stored %d observations", n)
	}
}

// TestIngestStampsReceiveInstant: a REST upload is received when the
// server reads it. The stored receivedAt is the server clock's instant,
// whether the client sent none (it used to become sensedAt, hiding the
// upload delay) or one of its own.
func TestIngestStampsReceiveInstant(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore()), Clock: simclock.NewSim(now)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(ts.Close)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	late := obsAt(t, "A", 55, true, now.Add(-10*time.Minute))
	claimed := obsAt(t, "B", 60, false, now.Add(-2*time.Hour))
	claimed.ReceivedAt = now.Add(-time.Hour)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations",
		map[string]any{"clientId": "phone-1", "observations": []*sensing.Observation{late, claimed}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	rows, err := server.Data.Retrieve(t.Context(), Query{AppID: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("stored %d observations, want 2", len(rows))
	}
	for _, r := range rows {
		if got, _ := r.Value("receivedAt").(time.Time); !got.Equal(now) {
			t.Errorf("%v sensed at %v: receivedAt %v, want the server's %v", r.Value("deviceModel"), r.Value("sensedAt"), got, now)
		}
	}
	if st, _ := server.Analytics.ForApp("SC"); !st.LastIngest.Equal(now) {
		t.Fatalf("LastIngest = %v, want %v", st.LastIngest, now)
	}
}

// TestIngestPayloadCap413: a body over maxIngestBytes is refused with
// the typed 413 before any of it is stored.
func TestIngestPayloadCap413(t *testing.T) {
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	// A single observation padded by an oversized field blows the cap
	// without building millions of structs.
	huge := fmt.Sprintf(`{"clientId":"phone-1","observations":[{"userId":"u1","deviceModel":%q,"mode":"opportunistic","spl":50,"activity":"still","sensedAt":"2026-03-01T12:00:00Z"}]}`,
		strings.Repeat("x", maxIngestBytes+1024))
	resp, err := http.Post(ts.URL+"/v1/apps/SC/observations", "application/json", bytes.NewBufferString(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "payload too large") {
		t.Fatalf("413 body = %v, want the typed error", body)
	}
	if n, _ := server.Data.Count(t.Context(), Query{AppID: "SC"}); n != 0 {
		t.Fatalf("oversized body stored %d observations", n)
	}
}

// TestAdmissionRateLimit429: ingest requests past the per-device
// bucket get 429 with Retry-After; a different device is unaffected.
func TestAdmissionRateLimit429(t *testing.T) {
	clk := newAdmClock()
	server, ts := newGuardedServer(t, AdmissionConfig{
		ratePerDevice: 1,
		rateBurst:     2,
		now:           clk.Now,
	})
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	body := sensing.IngestBody{ClientID: "c", Observations: []*sensing.Observation{obsAt(t, "A", 50, false, at)}}

	post := func(device string) *http.Response {
		t.Helper()
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations", body, "X-Device-ID", device)
		return resp
	}
	// Burst of 2 admitted, third refused.
	for i := 0; i < 2; i++ {
		if resp := post("dev-1"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst request %d = %d, want 201", i, resp.StatusCode)
		}
	}
	resp := post("dev-1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another device still has its own bucket.
	if resp := post("dev-2"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("other device = %d, want 201", resp.StatusCode)
	}
	// Tokens refill with the clock.
	clk.Advance(2 * time.Second)
	if resp := post("dev-1"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("after refill = %d, want 201", resp.StatusCode)
	}
}

// TestAdmissionShedsAnalyticsFirst drives the shedder to 1x pressure
// and checks the degradation order: analytics 503, queries and ingest
// still served.
func TestAdmissionShedsAnalyticsFirst(t *testing.T) {
	clk := newAdmClock()
	server, ts := newGuardedServer(t, AdmissionConfig{
		shedTarget: 100 * time.Millisecond,
		now:        clk.Now,
	})
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	// Feed the shedder a window of slow samples directly — driving
	// real handlers slow would make the test timing-dependent.
	for i := 0; i < 30; i++ {
		server.Guard.Shedder().Observe(150 * time.Millisecond)
	}

	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/analytics", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analytics under pressure = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response without Retry-After")
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query under 1x pressure = %d, want 200", resp.StatusCode)
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	body := sensing.IngestBody{ClientID: "c", Observations: []*sensing.Observation{obsAt(t, "A", 50, false, at)}}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest under 1x pressure = %d, want 201", resp.StatusCode)
	}

	// Pressure clears once the slow window ages out.
	clk.Advance(11 * time.Second)
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/analytics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics after recovery = %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionDraining503: once draining, guarded routes refuse with
// 503 + Retry-After while the health probe stays green.
func TestAdmissionDraining503(t *testing.T) {
	server, ts := newAPI(t)
	server.Guard.SetDraining(true)
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining response without Retry-After")
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health while draining = %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionBreakerOpensOnBackendFailure: consecutive 5xx on the
// query path trip the breaker; further queries short-circuit with 503
// without reaching the handler, and the breaker re-closes after the
// cooldown and a successful probe.
func TestAdmissionBreakerTripsAndRecovers(t *testing.T) {
	clk := newAdmClock()
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(docstore.NewStore()),
		admission: AdmissionConfig{
			breakerFailures: 3,
			breakerOpenFor:  time.Second,
			now:             clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	// A mux with one guarded route that fails on demand stands in for
	// a struggling backend.
	failing := true
	var handled int
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", server.Guard.Guard(guard.ClassQuery, func(w http.ResponseWriter, r *http.Request) {
		handled++
		if failing {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	get := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/boom")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 3; i++ {
		if got := get(); got != http.StatusInternalServerError {
			t.Fatalf("failing request %d = %d, want 500", i, got)
		}
	}
	if st := server.Guard.breaker.State(); st != guard.BreakerOpen {
		t.Fatalf("breaker after 3 failures = %v, want open", st)
	}
	before := handled
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker request = %d, want 503", got)
	}
	if handled != before {
		t.Fatal("open breaker let a request through to the handler")
	}
	// Past the cooldown (OpenFor + 20% jitter ceiling) the half-open
	// probe goes through and a success re-closes.
	failing = false
	clk.Advance(1500 * time.Millisecond)
	if got := get(); got != http.StatusOK {
		t.Fatalf("half-open probe = %d, want 200", got)
	}
	if st := server.Guard.breaker.State(); st != guard.BreakerClosed {
		t.Fatalf("breaker after probe success = %v, want closed", st)
	}
}

// TestDeadlinePropagationEndToEnd: a docstore scan that outlives the
// admission timeout is cancelled and surfaces as 504 from the REST
// layer.
func TestDeadlinePropagationEndToEnd(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(store),
		admission: AdmissionConfig{
			timeout: 50 * time.Millisecond,
		},
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
	// Enough documents that the scan passes a cancellation checkpoint,
	// with a predicate that stalls past the deadline on first call.
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	obs := make([]*sensing.Observation, 600)
	for i := range obs {
		obs[i] = obsAt(t, "A", 50, false, at.Add(time.Duration(i)*time.Second))
	}
	if _, err := server.BulkIngest("SC", "c", obs); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	slow := docstore.Predicate(func(v any) bool {
		once.Do(func() { <-release })
		return true
	})
	defer close(release)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", server.Guard.Guard(guard.ClassQuery, func(w http.ResponseWriter, r *http.Request) {
		_, err := store.Collection(ObservationsCollection).FindContext(r.Context(),
			docstore.Doc{"deviceModel": slow}, docstore.FindOptions{})
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	go func() {
		time.Sleep(150 * time.Millisecond)
		release <- struct{}{}
	}()
	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow scan = %d, want 504", resp.StatusCode)
	}
}

// TestShutdownContextDrains: ShutdownContext flips draining, stops the
// ingest loop, and repeated shutdowns are safe.
func TestShutdownContextDrains(t *testing.T) {
	server, _ := newTestServer(t)
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.ShutdownContext(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !server.Guard.draining.Load() {
		t.Fatal("shutdown did not flip the draining flag")
	}
	if err := server.ShutdownContext(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
