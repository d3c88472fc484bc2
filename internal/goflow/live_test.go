package goflow

import (
	"bufio"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
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
// streams need genuine flushing and hijacking, which
// httptest.ResponseRecorder cannot do).
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

// wsTestClient is a minimal masked-frame WebSocket client for
// exercising the real RFC 6455 handshake and framing.
type wsTestClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialWS(t *testing.T, ts *httptest.Server, path string) *wsTestClient {
	t.Helper()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		t.Fatal(err)
	}
	key := base64.StdEncoding.EncodeToString(nonce[:])
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: keep-alive, Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("handshake response: %v", err)
	}
	if !strings.Contains(status, "101") {
		t.Fatalf("handshake status = %q, want 101", strings.TrimSpace(status))
	}
	hdr, err := textproto.NewReader(br).ReadMIMEHeader()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hdr.Get("Sec-Websocket-Accept"), wsAcceptKey(key); got != want {
		t.Fatalf("Sec-WebSocket-Accept = %q, want %q", got, want)
	}
	return &wsTestClient{conn: conn, br: br}
}

// writeFrame sends one masked client frame (RFC 6455 requires clients
// to mask).
func (c *wsTestClient) writeFrame(t *testing.T, opcode byte, payload []byte) {
	t.Helper()
	if len(payload) >= 126 {
		t.Fatalf("test client frames stay under 126 bytes, got %d", len(payload))
	}
	mask := [4]byte{0x2a, 0x17, 0x99, 0x5c}
	frame := []byte{0x80 | opcode, 0x80 | byte(len(payload))}
	frame = append(frame, mask[:]...)
	for i, b := range payload {
		frame = append(frame, b^mask[i%4])
	}
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one unmasked server frame.
func (c *wsTestClient) readFrame(t *testing.T, timeout time.Duration) (opcode byte, payload []byte, err error) {
	t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
	var hdr [2]byte
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[1]&0x80 != 0 {
		t.Fatal("server frame must not be masked")
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0] & 0x0F, payload, nil
}

// mustReadText reads frames until a text frame arrives.
func (c *wsTestClient) mustReadText(t *testing.T) []byte {
	t.Helper()
	for {
		op, payload, err := c.readFrame(t, 5*time.Second)
		if err != nil {
			t.Fatalf("read ws frame: %v", err)
		}
		if op == wsOpText {
			return payload
		}
	}
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
// WebSocket: handshake, push, ping/pong, close paths
// ---------------------------------------------------------------------------

func TestLiveWebSocketPushPingAndClientClose(t *testing.T) {
	before := goflowStableGoroutines(t)
	server, broker, ts, cl := newLiveAPI(t, LiveConfig{})

	ws := dialWS(t, ts, "/v1/live/ws?app=SC")
	publishLiveObs(t, broker, cl, "FR75013", 55)
	var ev LiveEvent
	if err := json.Unmarshal(ws.mustReadText(t), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.App != "SC" || ev.Zone != "FR75013" {
		t.Fatalf("ws event = %+v", ev)
	}
	if got := eventSPL(t, ev); got != 55 {
		t.Fatalf("ws event spl = %v", got)
	}

	// Control traffic: ping answered with an echoing pong.
	ws.writeFrame(t, wsOpPing, []byte("hi"))
	op, payload, err := ws.readFrame(t, 5*time.Second)
	if err != nil || op != wsOpPong || string(payload) != "hi" {
		t.Fatalf("pong = op %#x payload %q err %v", op, payload, err)
	}

	// Client-initiated close tears the socket down server-side.
	ws.writeFrame(t, wsOpClose, nil)
	ws.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for server.Live.Sockets() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("socket not released after client close: %d live", server.Live.Sockets())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts.Close()
	server.Shutdown()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("goroutines leaked on the client-close path: %d -> %d", before, after)
	}
}

func TestLiveWebSocketDrainSendsGoingAway(t *testing.T) {
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	ws := dialWS(t, ts, "/v1/live/ws?app=SC")
	server.Live.Close()
	op, payload, err := ws.readFrame(t, 5*time.Second)
	if err != nil {
		t.Fatalf("expected a close frame, got %v", err)
	}
	if op != wsOpClose || len(payload) < 2 {
		t.Fatalf("drain frame = op %#x payload %q", op, payload)
	}
	if code := binary.BigEndian.Uint16(payload); code != wsCloseGoingAway {
		t.Fatalf("drain close code = %d, want %d", code, wsCloseGoingAway)
	}
	if reason := string(payload[2:]); reason != "server draining" {
		t.Fatalf("drain reason = %q", reason)
	}
}

func TestLiveWebSocketShedCloseCode(t *testing.T) {
	// Buffer 1 and a negative budget: the first full-mailbox event
	// sheds. A 256-message batch fans out faster than the writer can
	// drain a one-slot mailbox through a socket, so the shed fires
	// deterministically in practice.
	server, broker, ts, cl := newLiveAPI(t, LiveConfig{Buffer: 1, SendBudget: -1})
	reg := obs.NewRegistry()
	NewMetrics(reg).InstrumentLive(server)
	ws := dialWS(t, ts, "/v1/live/ws?app=SC")

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

	// Delivered events may precede the close; the close must carry the
	// try-later code pointing the client at the cursor API.
	for {
		op, payload, err := ws.readFrame(t, 5*time.Second)
		if err != nil {
			t.Fatalf("expected a shed close frame, got %v", err)
		}
		if op != wsOpClose {
			continue
		}
		if code := binary.BigEndian.Uint16(payload); code != wsCloseTryLater {
			t.Fatalf("shed close code = %d, want %d", code, wsCloseTryLater)
		}
		if reason := string(payload[2:]); !strings.Contains(reason, "cursor") {
			t.Fatalf("shed reason %q must point at the cursor API", reason)
		}
		break
	}
	if shed := reg.Counter("live_shed_total", "").Value(); shed != 1 {
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

func TestLiveWebSocketBadHandshakeLeaksNothing(t *testing.T) {
	before := goflowStableGoroutines(t)
	server, _, ts, _ := newLiveAPI(t, LiveConfig{})
	// Plain GET without upgrade headers: refused before any
	// subscription or hijack, with the subscription released.
	resp, err := http.Get(ts.URL + "/v1/live/ws")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad handshake = %d, want 400", resp.StatusCode)
	}
	if server.Live.Sockets() != 0 {
		t.Fatalf("failed upgrade left %d subscriptions attached", server.Live.Sockets())
	}
	ts.Close()
	server.Shutdown()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("goroutines leaked on the failed-upgrade path: %d -> %d", before, after)
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
		Live:   LiveConfig{Buffer: 1, SendBudget: 5 * time.Second, Now: clk.Now},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	reg := obs.NewRegistry()
	NewMetrics(reg).InstrumentLive(server)

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
	sheds, drops := reg.Counter("live_shed_total", "").Value(), reg.Counter("live_dropped_total", "").Value()
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
