package goflow

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

// Chaos suite for the live layer: the REST+stream listener is wrapped
// in a seeded fault injector, so server→client writes are reset
// mid-stream, one-way partitioned (writes swallowed, the client hears
// nothing), or delayed — the nemeses the paper's deployment met in the
// wild. The client under test does what a real dashboard must do:
// notice the dead stream, catch up over the cursor API (itself served
// through the same faulty listener, with retries), reconnect, and
// keep going. The invariant is the live layer's contract: the union
// of streamed and caught-up events is exactly the published set, with
// neither channel ever duplicating an event.

func TestLiveChaosStreamResumesWithCursor(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLiveChaos(t, seed) })
	}
}

// chaosStream is a raw-TCP SSE consumer with per-read deadlines, so a
// partitioned (silently black-holed) stream surfaces as a timeout
// instead of hanging the test.
type chaosStream struct {
	conn net.Conn
	br   *bufio.Reader
}

func openChaosStream(addr string) (*chaosStream, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	req := "GET /v1/live/sse?app=SC HTTP/1.1\r\nHost: " + addr + "\r\nAccept: text/event-stream\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.Contains(status, "200") {
		conn.Close()
		return nil, fmt.Errorf("stream status %q", strings.TrimSpace(status))
	}
	// Skip response headers.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	return &chaosStream{conn: conn, br: br}, nil
}

func (s *chaosStream) Close() { s.conn.Close() }

// next reads one live event, decoding the observation SPL as the
// event's identity. Any error — reset, EOF, deadline from a partition
// — means the stream is dead.
func (s *chaosStream) next(timeout time.Duration) (float64, error) {
	_ = s.conn.SetReadDeadline(time.Now().Add(timeout))
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		data, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "data: ")
		if !ok {
			continue
		}
		var ev LiveEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return 0, fmt.Errorf("bad event frame: %w", err)
		}
		o, err := sensing.DecodeObservation(ev.Body)
		if err != nil {
			return 0, fmt.Errorf("bad event body: %w", err)
		}
		return o.SPL, nil
	}
}

func runLiveChaos(t *testing.T, seed int64) {
	before := goflowStableGoroutines(t)
	rng := rand.New(rand.NewSource(seed))
	plan := faults.Plan{
		// Reset nemesis: kill the connection on every Nth server write.
		ResetEvery: 3 + rng.Intn(6),
		// Slow-reader nemesis: stall a fraction of writes.
		DelayProb: 0.2,
		Delay:     time.Millisecond,
	}
	if rng.Intn(2) == 0 {
		// One-way partition nemesis: after N writes the connection
		// black-holes — the server keeps "succeeding", the client
		// hears nothing and must notice via its read deadline.
		plan.PartitionAfterWrites = 4 + rng.Intn(8)
	}
	in := faults.New(seed, plan)

	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: NewInstrumentedHTTPHandler(server, obs.NewRegistry())}
	go func() { _ = httpSrv.Serve(in.Listener(ln)) }()
	addr := ln.Addr().String()

	seenStream := make(map[float64]int)
	seenCatch := make(map[float64]int)
	cursor := ""

	// catchUp walks cursor pages until one comes back empty. The pages
	// travel the same faulty listener, so individual requests may die;
	// the cursor makes retries safe — a page is only recorded (and the
	// cursor only advanced) when it decoded in full.
	httpc := &http.Client{Timeout: 2 * time.Second}
	catchUp := func() {
		t.Helper()
		for attempt := 0; attempt < 50; attempt++ {
			pageURL := fmt.Sprintf("http://%s/v1/apps/SC/observations?cursor=%s&limit=100",
				addr, url.QueryEscape(cursor))
			resp, err := httpc.Get(pageURL)
			if err != nil {
				continue
			}
			var body map[string]any
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				continue
			}
			docs, _ := body["observations"].([]any)
			for _, d := range docs {
				doc := d.(map[string]any)
				seenCatch[doc["spl"].(float64)]++
			}
			if nc, ok := body["nextCursor"].(string); ok {
				cursor = nc
			}
			if len(docs) == 0 {
				return
			}
		}
		t.Fatal("cursor catch-up never completed through the faulty link")
	}

	const rounds, perRound = 4, 5
	published := 0
	inUnion := func(spl float64) bool {
		return seenStream[spl] > 0 || seenCatch[spl] > 0
	}
	var stream *chaosStream
	for round := 0; round < rounds; round++ {
		// (Re)connect before publishing, so everything published this
		// round is either streamed to this connection or durably
		// stored behind the cursor. The handshake itself can be hit.
		for attempt := 0; stream == nil; attempt++ {
			if attempt >= 20 {
				t.Fatal("could not open a live stream through the faulty link")
			}
			stream, _ = openChaosStream(addr)
		}
		for i := 0; i < perRound; i++ {
			publishLiveObs(t, broker, cl, "FR75013", 50+float64(published))
			published++
		}
		if err := server.WaitIdle(5 * time.Second); err != nil {
			t.Fatal(err)
		}

		// Drain the stream until every published event is accounted
		// for or the stream dies.
		for {
			missing := 0
			for i := 0; i < published; i++ {
				if !inUnion(50 + float64(i)) {
					missing++
				}
			}
			if missing == 0 {
				break
			}
			spl, err := stream.next(time.Second)
			if err != nil {
				stream.Close()
				stream = nil
				break
			}
			seenStream[spl]++
			if seenStream[spl] > 1 {
				t.Fatalf("seed=%d: stream delivered %v twice", seed, spl)
			}
		}
		if stream == nil {
			catchUp()
		}
	}
	if stream != nil {
		stream.Close()
	}
	// Whatever the final stream state, a last catch-up must leave the
	// union complete.
	catchUp()

	for i := 0; i < published; i++ {
		spl := 50 + float64(i)
		if !inUnion(spl) {
			t.Errorf("seed=%d: event %v lost (not streamed, not caught up)", seed, spl)
		}
	}
	for spl, n := range seenCatch {
		if n > 1 {
			t.Errorf("seed=%d: cursor catch-up returned %v %d times", seed, spl, n)
		}
	}
	counts := in.Counts()
	if counts.Resets+counts.Partitions+counts.Delays == 0 {
		t.Errorf("seed=%d: no faults fired — the chaos run was not chaotic (counts %+v)", seed, counts)
	}

	// Drain: no socket lifecycle path may leak a goroutine — including
	// partitioned handlers whose writes were silently swallowed.
	server.Live.Close()
	_ = httpSrv.Close()
	server.Shutdown()
	broker.Close()
	if after := goflowStableGoroutines(t); after > before+3 {
		t.Fatalf("seed=%d: goroutines leaked across the chaos run: %d -> %d", seed, before, after)
	}
}
