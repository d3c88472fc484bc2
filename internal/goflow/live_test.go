package goflow

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
)

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// goflowStableGoroutines samples the goroutine count until it stops
// decreasing (same idiom as the mq leak tests): handlers and readers
// need a moment to observe closed connections.
func goflowStableGoroutines(t *testing.T) int {
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

// newLiveAPI builds a server with the live layer configured, the
// SoundCity-style app registered, one logged-in client, ingest
// running, and the REST API served over a real HTTP listener (live
// streams need genuine flushing, which httptest.ResponseRecorder
// cannot do).
func newLiveAPI(t *testing.T, cfg LiveConfig) (*Server, *mq.Broker, *httptest.Server, *Client) {
	t.Helper()
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore()), Live: cfg})
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
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(func() {
		ts.Close()
		server.Shutdown()
		broker.Close()
	})
	return server, broker, ts, cl
}

// publishLiveObs publishes one observation through the client's own
// exchange — the real transport path, so the event is both stored by
// the ingest loop and fanned out to live sockets.
func publishLiveObs(t *testing.T, broker *mq.Broker, cl *Client, zone string, spl float64) {
	t.Helper()
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(int(spl)) * time.Second)
	o := obsAt(t, "LGE NEXUS 5", spl, true, at)
	body, err := o.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "obs", zone)
	if _, err := broker.PublishAt(cl.Exchange, key, nil, body, at); err != nil {
		t.Fatal(err)
	}
}

// sseClient consumes a live SSE stream in the background, surfacing
// parsed events and the terminal end frame over channels so tests can
// receive with timeouts.
type sseClient struct {
	resp   *http.Response
	events chan LiveEvent
	end    chan string
	once   sync.Once
}

func openSSE(t *testing.T, rawURL string) *sseClient {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE open = %d (%s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	c := &sseClient{resp: resp, events: make(chan LiveEvent, 256), end: make(chan string, 1)}
	go c.loop()
	t.Cleanup(c.Close)
	return c
}

func (c *sseClient) Close() { c.once.Do(func() { c.resp.Body.Close() }) }

func (c *sseClient) loop() {
	defer close(c.events)
	sc := bufio.NewScanner(c.resp.Body)
	endNext := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			endNext = true
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if endNext {
			var e struct {
				Reason string `json:"reason"`
			}
			_ = json.Unmarshal([]byte(data), &e)
			c.end <- e.Reason
			return
		}
		var ev LiveEvent
		if json.Unmarshal([]byte(data), &ev) == nil {
			c.events <- ev
		}
	}
}

func (c *sseClient) recv(t *testing.T) LiveEvent {
	t.Helper()
	select {
	case ev, ok := <-c.events:
		if !ok {
			t.Fatal("SSE stream ended while waiting for an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a live SSE event")
	}
	return LiveEvent{}
}

func eventSPL(t *testing.T, ev LiveEvent) float64 {
	t.Helper()
	o, err := sensing.DecodeObservation(ev.Body)
	if err != nil {
		t.Fatalf("live event body: %v", err)
	}
	return o.SPL
}

// docSPLs extracts the spl column from a cursor/observations response.
func docSPLs(t *testing.T, body map[string]any) []float64 {
	t.Helper()
	raw, ok := body["observations"].([]any)
	if !ok {
		t.Fatalf("response has no observations array: %v", body)
	}
	out := make([]float64, 0, len(raw))
	for _, d := range raw {
		doc, ok := d.(map[string]any)
		if !ok {
			t.Fatalf("bad observation shape: %v", d)
		}
		spl, ok := doc["spl"].(float64)
		if !ok {
			t.Fatalf("observation missing spl: %v", doc)
		}
		out = append(out, spl)
	}
	return out
}

// ---------------------------------------------------------------------------
// SSE conformance + cursor catch-up (the exactly-once story end to end)
// ---------------------------------------------------------------------------

func TestLiveSSEConformanceAndCursorCatchup(t *testing.T) {
	server, broker, ts, cl := newLiveAPI(t, LiveConfig{})
	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC&zone=FR75013")

	// Phase 1: stream delivers every matching event, in publish order.
	for i := 0; i < 5; i++ {
		publishLiveObs(t, broker, cl, "FR75013", 50+float64(i))
	}
	for i := 0; i < 5; i++ {
		ev := stream.recv(t)
		if ev.App != "SC" || ev.Zone != "FR75013" || ev.Datatype != "obs" {
			t.Fatalf("event routing = %s/%s/%s", ev.App, ev.Datatype, ev.Zone)
		}
		if got, want := eventSPL(t, ev), 50+float64(i); got != want {
			t.Fatalf("event %d spl = %v, want %v (publish order violated)", i, got, want)
		}
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a cursor walk from the start pages over exactly the same
	// five observations, in the same order.
	var cursor string
	var walked []float64
	page := ts.URL + "/v1/apps/SC/observations?cursor=&limit=2"
	for {
		resp, body := doJSON(t, http.MethodGet, page, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor page = %d %v", resp.StatusCode, body)
		}
		spls := docSPLs(t, body)
		walked = append(walked, spls...)
		next, _ := body["nextCursor"].(string)
		if len(spls) == 0 {
			break
		}
		if next == "" {
			t.Fatal("non-empty page must carry nextCursor")
		}
		cursor = next
		page = ts.URL + "/v1/apps/SC/observations?cursor=" + url.QueryEscape(cursor) + "&limit=2"
	}
	if len(walked) != 5 {
		t.Fatalf("cursor walk saw %d observations, want 5 (%v)", len(walked), walked)
	}
	for i, spl := range walked {
		if spl != 50+float64(i) {
			t.Fatalf("cursor walk out of order: %v", walked)
		}
	}

	// Phase 3: disconnect, miss three events, resume from the saved
	// cursor — the catch-up returns exactly the missed three, once.
	stream.Close()
	for i := 0; i < 3; i++ {
		publishLiveObs(t, broker, cl, "FR75013", 60+float64(i))
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, http.MethodGet,
		ts.URL+"/v1/apps/SC/observations?cursor="+url.QueryEscape(cursor)+"&limit=100", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catch-up = %d %v", resp.StatusCode, body)
	}
	caught := docSPLs(t, body)
	if len(caught) != 3 || caught[0] != 60 || caught[1] != 61 || caught[2] != 62 {
		t.Fatalf("catch-up = %v, want exactly the three missed events", caught)
	}
	// And the walk terminates: one more page from the new anchor is
	// empty with no further cursor.
	next, _ := body["nextCursor"].(string)
	resp, body = doJSON(t, http.MethodGet,
		ts.URL+"/v1/apps/SC/observations?cursor="+url.QueryEscape(next)+"&limit=100", nil)
	if resp.StatusCode != http.StatusOK || body["count"].(float64) != 0 {
		t.Fatalf("drained page = %d %v", resp.StatusCode, body)
	}
	if _, has := body["nextCursor"]; has {
		t.Fatal("empty page must not mint a nextCursor")
	}
	if got := server.Live.CatchupReads(); got < 4 {
		t.Fatalf("catch-up reads = %d, want every cursor request counted", got)
	}
}

func TestLiveSSEFiltersByZone(t *testing.T) {
	_, broker, ts, cl := newLiveAPI(t, LiveConfig{})
	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC&zone=FR75013")
	publishLiveObs(t, broker, cl, "FR75001", 40) // other zone: filtered out
	publishLiveObs(t, broker, cl, "FR75013", 41)
	if got := eventSPL(t, stream.recv(t)); got != 41 {
		t.Fatalf("zone filter leaked: first event spl = %v, want 41", got)
	}
	select {
	case ev := <-stream.events:
		t.Fatalf("unexpected extra event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// ---------------------------------------------------------------------------
// SSE: shed and early-exit paths
// ---------------------------------------------------------------------------

func TestLiveSSEShedEndEvent(t *testing.T) {
	// Buffer 1 and a negative budget: the first full-mailbox event
	// sheds. A 256-message batch fans out faster than the writer can
	// drain a one-slot mailbox through a socket, so the shed fires
	// deterministically in practice.
	server, broker, ts, cl := newLiveAPI(t, LiveConfig{Buffer: 1, SendBudget: -1})
	reg := obs.NewRegistry()
	Instrument(reg, server, docstore.NewStore())
	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC")

	o := obsAt(t, "A", 50, true, time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
	body, err := o.Encode()
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]mq.PublishItem, 256)
	for i := range batch {
		batch[i] = mq.PublishItem{RoutingKey: routingKey("SC", cl.ID, "obs", "FR75013"), Body: body}
	}
	if _, err := broker.PublishBatch(cl.Exchange, batch); err != nil {
		t.Fatal(err)
	}

	// Delivered events may precede the end; the end must name the shed,
	// which sends the client to the cursor API.
	select {
	case reason := <-stream.end:
		if reason != "shed" {
			t.Fatalf("end reason = %q, want shed", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no end event after the shed")
	}
	if shed := scrapeCounters(t, reg)["live_shed_total"]; shed != 1 {
		t.Fatalf("live_shed_total = %d, want 1", shed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.Live.Sockets() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("shed socket not released")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveSSEEarlyExitLeaksNothing: a stream refused before any event
// is written (a bad selection) leaves no subscription attached and no
// goroutine behind.
func TestLiveSSEEarlyExitLeaksNothing(t *testing.T) {
	before := goflowStableGoroutines(t)
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	resp, err := http.Get(ts.URL + "/v1/live/sse?pattern=")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pattern = %d, want 400", resp.StatusCode)
	}
	if server.Live.Sockets() != 0 {
		t.Fatalf("refused stream left %d subscriptions attached", server.Live.Sockets())
	}

	ts.Close()
	server.Shutdown()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("goroutines leaked on the refused-stream path: %d -> %d", before, after)
	}
}

// TestLiveSSEPushAndClientHangUp: a published observation reaches an
// open stream, and a client that hangs up releases its socket with no
// goroutine left behind.
func TestLiveSSEPushAndClientHangUp(t *testing.T) {
	before := goflowStableGoroutines(t)
	server, broker, ts, cl := newLiveAPI(t, LiveConfig{})

	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC")
	publishLiveObs(t, broker, cl, "FR75013", 55)
	ev := stream.recv(t)
	if ev.App != "SC" || ev.Zone != "FR75013" {
		t.Fatalf("sse event = %+v", ev)
	}
	if got := eventSPL(t, ev); got != 55 {
		t.Fatalf("sse event spl = %v", got)
	}

	stream.Close()
	deadline := time.Now().Add(5 * time.Second)
	for server.Live.Sockets() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("socket not released after client hang-up: %d live", server.Live.Sockets())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts.Close()
	server.Shutdown()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("goroutines leaked on the client hang-up path: %d -> %d", before, after)
	}
}

// ---------------------------------------------------------------------------
// Slow-consumer shed within budget — fake clock, no sleeps
// ---------------------------------------------------------------------------

// fakeClock is a hand-advanced clock for send-budget tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLiveSlowConsumerShedWithinBudget(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)}
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   storage.NewLocal(docstore.NewStore()),
		Live:   LiveConfig{Buffer: 1, SendBudget: 5 * time.Second, now: clk.Now},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	reg := obs.NewRegistry()
	Instrument(reg, server, docstore.NewStore())

	slow, err := server.Live.Subscribe([]string{"SC.#"})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := server.Live.Subscribe([]string{"SC.#"})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Live.Release(fast)

	publish := func(n int) {
		t.Helper()
		if _, err := broker.PublishAt(GoFlowExchange, "SC.c1.obs.Z1", nil, []byte{byte(n)}, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	fastRecv := func(want int) {
		t.Helper()
		select {
		case m := <-fast.C():
			if int(m.Body[0]) != want {
				t.Fatalf("fast reader got %d, want %d", m.Body[0], want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fast reader starved waiting for event %d", want)
		}
	}
	shed := func() bool {
		select {
		case <-slow.Done():
			return true
		default:
			return false
		}
	}

	// t=0: event 0 fills the slow mailbox; event 1 starts the full
	// streak. Neither sheds — the budget tolerates a full queue for 5s.
	publish(0)
	fastRecv(0)
	publish(1)
	fastRecv(1)
	if shed() {
		t.Fatal("shed before the budget elapsed")
	}

	// t=2.5s: still inside the budget.
	clk.Advance(2500 * time.Millisecond)
	publish(2)
	fastRecv(2)
	if shed() {
		t.Fatal("shed at half budget")
	}

	// t=5.1s: the streak has outlived the budget — the next full
	// enqueue sheds, with no wall-clock time spent.
	clk.Advance(2600 * time.Millisecond)
	publish(3)
	fastRecv(3)
	select {
	case <-slow.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("slow consumer not shed after its budget elapsed")
	}
	if !slow.Shed() {
		t.Fatal("Done without Shed: slow consumer must be marked shed, not drained")
	}

	// The slow mailbox still holds the one event it accepted; the rest
	// were dropped, not buffered — bounded memory under a stalled
	// reader. The fast reader saw all four with no interference.
	if got := len(slow.C()); got != 1 {
		t.Fatalf("slow mailbox holds %d events, want 1", got)
	}
	counts := scrapeCounters(t, reg)
	sheds, drops := counts["live_shed_total"], counts["live_dropped_total"]
	if sheds != 1 || drops != 3 {
		t.Fatalf("live_shed_total = %d, live_dropped_total = %d; want 1, 3", sheds, drops)
	}
}

// ---------------------------------------------------------------------------
// Cursor HTTP error mapping
// ---------------------------------------------------------------------------

func TestLiveCursorHTTPErrors(t *testing.T) {
	_, _, ts, _ := newLiveAPI(t, LiveConfig{})

	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?cursor=%25%25", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor = %d, want 400", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet,
		ts.URL+"/v1/apps/SC/observations?cursor="+url.QueryEscape(EncodeCursor("")), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-anchor cursor = %d, want 400", resp.StatusCode)
	}
	// An anchor that is neither present nor a store-assigned id cannot
	// be positioned: the cursor is permanently gone.
	resp, _ = doJSON(t, http.MethodGet,
		ts.URL+"/v1/apps/SC/observations?cursor="+url.QueryEscape(EncodeCursor("not-a-doc")), nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unpositionable cursor = %d, want 410", resp.StatusCode)
	}
}

// noCursorEngine hides the CursorScanner capability of the wrapped
// engine, modeling storage backends (e.g. the cluster router) without
// a global scan order.
type noCursorEngine struct{ storage.Engine }

func TestLiveCursorUnsupportedEngine(t *testing.T) {
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{
		Broker: broker,
		Data:   noCursorEngine{storage.NewLocal(docstore.NewStore())},
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
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(ts.Close)
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?cursor=", nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("cursor on non-scanning engine = %d, want 501", resp.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Latest-per-zone cache endpoint
// ---------------------------------------------------------------------------

func TestLiveLatestEndpoint(t *testing.T) {
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	at := time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC)
	server.LiveCache.Observe([]series.Point{
		{TS: at.UnixMilli(), Value: 61.5, Zone: "FR75013"},
		{TS: at.Add(time.Minute).UnixMilli(), Value: 58.0, Zone: "FR75001"},
		{TS: at.Add(-time.Minute).UnixMilli(), Value: 99.0, Zone: "FR75013"}, // older: kept out
		{TS: at.UnixMilli(), Value: 70.0, Zone: ""},                          // unlocalized: skipped
	})

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/live/latest", nil)
	if resp.StatusCode != http.StatusOK || body["count"].(float64) != 2 {
		t.Fatalf("latest = %d %v", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/live/latest?zone=FR75013", nil)
	if resp.StatusCode != http.StatusOK || body["spl"].(float64) != 61.5 {
		t.Fatalf("latest zone = %d %v (stale point must not win)", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/live/latest?zone=NOPE", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown zone = %d, want 404", resp.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Admission: socket cap and draining
// ---------------------------------------------------------------------------

func TestLiveSocketCapAndDraining(t *testing.T) {
	server, _, ts, _ := newLiveAPI(t, LiveConfig{MaxSockets: 1})
	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC")
	defer stream.Close()

	resp, err := http.Get(ts.URL + "/v1/live/sse?app=SC")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap subscribe = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatal("over-cap subscribe must carry Retry-After")
	}

	server.Guard.SetDraining(true)
	resp, err = http.Get(ts.URL + "/v1/live/sse?app=SC")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining subscribe = %d, want 503", resp.StatusCode)
	}
}

func TestLiveSSEDrainSendsEndEvent(t *testing.T) {
	before := goflowStableGoroutines(t)
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	stream := openSSE(t, ts.URL+"/v1/live/sse?app=SC")
	server.Live.Close()
	select {
	case reason := <-stream.end:
		if reason != "draining" {
			t.Fatalf("end reason = %q, want draining", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no end event after hub close")
	}
	stream.Close()
	ts.Close()
	server.Shutdown()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("goroutines leaked on the drain path: %d -> %d", before, after)
	}
}

// TestLiveSSEShutdownEndsOpenStreams: a graceful shutdown ends every
// open stream with reason "draining" instead of waiting on idle
// dashboards, releases their sockets, and refuses new subscribers.
func TestLiveSSEShutdownEndsOpenStreams(t *testing.T) {
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	streams := []*sseClient{
		openSSE(t, ts.URL+"/v1/live/sse?app=SC"),
		openSSE(t, ts.URL+"/v1/live/sse?app=SC&zone=FR75013"),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.ShutdownContext(ctx); err != nil {
		t.Fatalf("shutdown with idle streams open: %v", err)
	}
	for i, stream := range streams {
		select {
		case reason := <-stream.end:
			if reason != "draining" {
				t.Fatalf("stream %d end reason = %q, want draining", i, reason)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream %d got no end event on shutdown", i)
		}
	}
	if n := server.Live.Sockets(); n != 0 {
		t.Fatalf("%d sockets still attached after shutdown", n)
	}

	resp, err := http.Get(ts.URL + "/v1/live/sse?app=SC")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe after shutdown = %d, want 503", resp.StatusCode)
	}
}

func TestLiveConfigValidation(t *testing.T) {
	cfg := LiveConfig{}.withDefaults()
	if cfg.Buffer != 256 || cfg.SendBudget != 5*time.Second || cfg.MaxSockets != 1024 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if got := (LiveConfig{SendBudget: -1}).withDefaults().SendBudget; got != 0 {
		t.Fatalf("negative budget = %v, want 0 (shed on first full)", got)
	}
	if _, err := livePatterns([]string{"a.b", ""}, "", "", ""); err == nil {
		t.Fatal("empty explicit pattern must be rejected")
	}
	pats, err := livePatterns(nil, "SC", "", "")
	if err != nil || len(pats) != 1 || pats[0] != "SC.*.*.#" {
		t.Fatalf("compiled patterns = %v err %v", pats, err)
	}
	pats, _ = livePatterns(nil, "SC", "obs", "FR75013")
	if pats[0] != "SC.*.obs.FR75013" {
		t.Fatalf("zone-pinned pattern = %v", pats)
	}
}
