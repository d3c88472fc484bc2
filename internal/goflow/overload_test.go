package goflow

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/storage"
)

// Chaos-style overload suite: a 10x sustained burst against the
// guarded API must degrade gracefully — analytics shed first, sensed
// observations never refused, ingest latency bounded — and recovery
// after the burst must be clean: shedder pressure clears, the query
// breaker re-closes, no goroutines leak.

// stableGoroutines samples the goroutine count until it stops
// shrinking (stdlib-only stand-in for goleak, mirroring the mq
// package's leak tests).
func stableGoroutines(t *testing.T) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur >= prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + p) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

func TestOverloadGracefulDegradation(t *testing.T) {
	const shedTarget = 40 * time.Millisecond
	before := stableGoroutines(t)

	clk := newAdmClock()
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(docstore.NewStore()),
		admission: AdmissionConfig{
			ratePerDevice:   -1, // fairness is tested elsewhere; this suite isolates shedding
			shedTarget:      shedTarget,
			concurrency:     map[guard.Class]int{guard.ClassIngest: 16, guard.ClassQuery: 8, guard.ClassAnalytics: 4},
			breakerFailures: 3,
			breakerOpenFor:  time.Second,
			seed:            42,
			now:             clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Synthetic guarded backend: handler latency follows a seeded
	// schedule standing in for a store at 10x load — between 1.2x and
	// 2.2x the shed target, so pressure reaches the analytics and
	// query ranks but never the ingest rank (3x). The admission times
	// handlers on its own clock, the fake one its shedder window and
	// breaker run on, and a handler spends its latency on that clock.
	// The guarded section runs one request at a time, so each request
	// measures exactly its scheduled latency: what the shedder sees
	// does not depend on how loaded the machine running the test is.
	// The thirty clients still burst concurrently and queue for the
	// section.
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, 512)
	for i := range delays {
		delays[i] = shedTarget*12/10 + time.Duration(rng.Int63n(int64(shedTarget)))
	}
	var delayIdx atomic.Int64
	backendDelay := func() time.Duration {
		return delays[int(delayIdx.Add(1))%len(delays)]
	}
	var section sync.Mutex
	guarded := func(class guard.Class, h http.HandlerFunc) http.HandlerFunc {
		g := server.Guard.Guard(class, h)
		return func(w http.ResponseWriter, r *http.Request) {
			section.Lock()
			defer section.Unlock()
			g(w, r)
		}
	}
	var queryFailing atomic.Bool
	var queryHandled atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", guarded(guard.ClassIngest, func(w http.ResponseWriter, r *http.Request) {
		clk.Advance(backendDelay())
		w.WriteHeader(http.StatusCreated)
	}))
	mux.HandleFunc("GET /query", guarded(guard.ClassQuery, func(w http.ResponseWriter, r *http.Request) {
		queryHandled.Add(1)
		clk.Advance(backendDelay())
		if queryFailing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	mux.HandleFunc("GET /analytics", guarded(guard.ClassAnalytics, func(w http.ResponseWriter, r *http.Request) {
		clk.Advance(backendDelay())
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(mux)

	httpClient := &http.Client{Timeout: 10 * time.Second}
	do := func(method, path string) int {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}

	// ---- Sustained 10x burst: 30 concurrent clients, 10 per class.
	const workersPerClass = 10
	const requestsPerWorker = 15
	var (
		mu              sync.Mutex
		ingestLat       []time.Duration
		ingestShed      int
		ingestServed    int
		queryShed       int
		analyticsShed   int
		analyticsServed int
	)
	var wg sync.WaitGroup
	for w := 0; w < workersPerClass; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < requestsPerWorker; i++ {
				start := time.Now()
				code := do(http.MethodPost, "/ingest")
				elapsed := time.Since(start)
				mu.Lock()
				ingestLat = append(ingestLat, elapsed)
				switch code {
				case http.StatusCreated:
					ingestServed++
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					ingestShed++
				default:
					t.Errorf("ingest status %d", code)
				}
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < requestsPerWorker; i++ {
				if code := do(http.MethodGet, "/query"); code == http.StatusServiceUnavailable {
					mu.Lock()
					queryShed++
					mu.Unlock()
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < requestsPerWorker; i++ {
				code := do(http.MethodGet, "/analytics")
				mu.Lock()
				if code == http.StatusServiceUnavailable {
					analyticsShed++
				} else if code == http.StatusOK {
					analyticsServed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Graceful degradation: analytics shed under pressure, sensed
	// observations never.
	if ingestShed != 0 {
		t.Fatalf("ingest sheds under overload = %d, want 0 (analytics must go first)", ingestShed)
	}
	if analyticsShed == 0 {
		t.Fatalf("no analytics sheds under 10x overload (served=%d) — shedder never engaged", analyticsServed)
	}
	if ingestServed != workersPerClass*requestsPerWorker {
		t.Fatalf("ingest served %d/%d", ingestServed, workersPerClass*requestsPerWorker)
	}
	// Bounded ingest latency: a handler costs no wall time here, so a
	// client waits only for the requests queued ahead of it — far
	// below an unbounded-queue pileup.
	if p99 := percentile(ingestLat, 99); p99 > 500*time.Millisecond {
		t.Fatalf("ingest p99 = %v under overload, want bounded (<500ms)", p99)
	}
	t.Logf("overload: ingest p99=%v sheds: ingest=%d query=%d analytics=%d (analytics served %d)",
		percentile(ingestLat, 99), ingestShed, queryShed, analyticsShed, analyticsServed)

	// ---- Trip the query breaker with consecutive backend failures.
	// First age out the burst's latency window (fake clock) so queries
	// reach the breaker instead of being shed upstream of it.
	clk.Advance(11 * time.Second)
	queryFailing.Store(true)
	fails := 0
	for i := 0; i < 20 && server.Guard.breaker.State() != guard.BreakerOpen; i++ {
		if code := do(http.MethodGet, "/query"); code == http.StatusInternalServerError {
			fails++
		}
	}
	if st := server.Guard.breaker.State(); st != guard.BreakerOpen {
		t.Fatalf("breaker after %d backend failures = %v, want open", fails, st)
	}
	handledBefore := queryHandled.Load()
	if code := do(http.MethodGet, "/query"); code != http.StatusServiceUnavailable {
		t.Fatalf("query with open breaker = %d, want 503", code)
	}
	if queryHandled.Load() != handledBefore {
		t.Fatal("open breaker let a query reach the backend")
	}

	// ---- Recovery: the breaker cooldown (OpenFor + jitter ceiling)
	// passes on the fake clock — deterministic, no wall-clock sleeps.
	queryFailing.Store(false)
	clk.Advance(2 * time.Second)
	if code := do(http.MethodGet, "/analytics"); code != http.StatusOK {
		t.Fatalf("analytics after recovery = %d, want 200", code)
	}
	if code := do(http.MethodGet, "/query"); code != http.StatusOK {
		t.Fatalf("query probe after cooldown = %d, want 200", code)
	}
	if st := server.Guard.breaker.State(); st != guard.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
	if p99 := server.Guard.Shedder().P99(); p99 != 0 {
		t.Fatalf("shedder p99 after recovery window = %v, want 0 (window empty)", p99)
	}

	// ---- Clean teardown: no goroutine growth.
	httpClient.CloseIdleConnections()
	ts.Close()
	server.Shutdown()
	broker.Close()
	after := stableGoroutines(t)
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d after overload + shutdown", before, after)
	}
}
