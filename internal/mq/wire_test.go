package mq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// Wire goldens: the exact bytes of every frame a shipped program sends
// or receives. A change to any of them breaks old phones and old
// servers, so it must show up here first.

var goldenAt = time.Date(2020, 9, 13, 12, 26, 40, 0, time.UTC)

// Client → server requests, in the order TestWireGoldenClientFrames
// issues them.
var goldenRequests = []string{
	`{"op":"publish","corr":1,"exchange":"E.mob1","routingKey":"SC.mob1.obs","headers":{"clientId":"mob1"},"body":"eyJzcGwiOjYxLjV9","publishedAt":"2020-09-13T12:26:40Z"}`,
	`{"op":"publish-batch","corr":2,"exchange":"E.mob1","publishedAt":"0001-01-01T00:00:00Z","items":[{"routingKey":"SC.mob1.obs","body":"eyJzcGwiOjYxfQ==","publishedAt":"2020-09-13T12:26:40Z"},{"routingKey":"SC.mob1.obs","headers":{"n":"2"},"body":"eyJzcGwiOjYyfQ==","publishedAt":"2020-09-13T12:26:41Z"}]}`,
	`{"op":"consume","corr":3,"queue":"GF","publishedAt":"0001-01-01T00:00:00Z","prefetch":8}`,
	`{"op":"ack","corr":4,"publishedAt":"0001-01-01T00:00:00Z","consumerId":1,"tag":3}`,
	`{"op":"queue-stats","corr":5,"queue":"GF","publishedAt":"0001-01-01T00:00:00Z"}`,
}

// rawFrame reads one frame's length prefix and payload as they came
// off the wire.
func rawFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return append(prefix[:], payload...), nil
}

// onWire is payload as one frame: its 4-byte big-endian length, then
// the payload.
func onWire(payload string) string {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
	return string(prefix[:]) + payload
}

func TestWireGoldenClientFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, len(goldenRequests))
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for {
			raw, err := rawFrame(nc)
			if err != nil {
				return
			}
			got <- raw
			var req frame
			if err := json.Unmarshal(raw[4:], &req); err != nil {
				return
			}
			resp := &frame{Op: opOK, Corr: req.Corr, Delivered: 1}
			switch req.Op {
			case opConsume:
				resp = &frame{Op: opOK, Corr: req.Corr, ConsumerID: 1}
			case opQueueStats:
				resp = &frame{Op: opOK, Corr: req.Corr, Stats: &QueueStats{Name: req.Queue}}
			}
			if _, err := writeFrame(nc, resp); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PublishAt("E.mob1", "SC.mob1.obs", map[string]string{"clientId": "mob1"}, []byte(`{"spl":61.5}`), goldenAt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishBatch("E.mob1", []PublishItem{
		{RoutingKey: "SC.mob1.obs", Body: []byte(`{"spl":61}`), At: goldenAt},
		{RoutingKey: "SC.mob1.obs", Headers: map[string]string{"n": "2"}, Body: []byte(`{"spl":62}`), At: goldenAt.Add(time.Second)},
	}); err != nil {
		t.Fatal(err)
	}
	rc, err := c.Consume("GF", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Ack(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueueStats("GF"); err != nil {
		t.Fatal(err)
	}
	for i, want := range goldenRequests {
		if raw := <-got; string(raw) != onWire(want) {
			t.Errorf("request %d on the wire:\n got %q\nwant %q", i, raw, onWire(want))
		}
	}
}

// rawSession is a connection to a Server that speaks frames by hand,
// as a client built from another tree would.
type rawSession struct {
	t     *testing.T
	nc    net.Conn
	r     *bufio.Reader
	flows []string // flow frames, which the server pushes at any time
}

func dialRaw(t *testing.T, s *Server) *rawSession {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawSession{t: t, nc: nc, r: bufio.NewReader(nc)}
}

func (rs *rawSession) send(payload string) {
	rs.t.Helper()
	if _, err := io.WriteString(rs.nc, onWire(payload)); err != nil {
		rs.t.Fatal(err)
	}
}

// next returns the next frame that is not a flow push.
func (rs *rawSession) next() string {
	rs.t.Helper()
	for {
		raw, err := rawFrame(rs.r)
		if err != nil {
			rs.t.Fatal(err)
		}
		if !bytes.HasPrefix(raw[4:], []byte(`{"op":"flow",`)) {
			return string(raw)
		}
		rs.flows = append(rs.flows, string(raw))
	}
}

func TestWireGoldenServerFrames(t *testing.T) {
	b, s := startServer(t)
	if err := b.DeclareExchange("E.mob1", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("GF", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("GF", "E.mob1", "SC.#"); err != nil {
		t.Fatal(err)
	}
	// A queue over its high watermark: a new session learns it from a
	// flow frame pushed right after accept (and maybe a second one from
	// the broadcast of the transition itself).
	if err := b.DeclareQueue("Q.full", QueueOptions{HighWatermark: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("Q.full", "E.mob1", "full"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.PublishAt("E.mob1", "full", nil, []byte("x"), goldenAt); err != nil {
			t.Fatal(err)
		}
	}

	rs := dialRaw(t, s)
	rs.send(goldenRequests[0])
	if got, want := rs.next(), onWire(`{"op":"ok","corr":1,"publishedAt":"0001-01-01T00:00:00Z","delivered":1}`); got != want {
		t.Fatalf("publish reply:\n got %q\nwant %q", got, want)
	}
	rs.send(goldenRequests[2])
	// The consume reply and the first delivery race each other.
	var deliver string
	for i := 0; i < 2; i++ {
		raw := rs.next()
		var f frame
		if err := json.Unmarshal([]byte(raw[4:]), &f); err != nil {
			t.Fatal(err)
		}
		switch f.Op {
		case opOK:
			if want := onWire(`{"op":"ok","corr":3,"publishedAt":"0001-01-01T00:00:00Z","consumerId":1}`); raw != want {
				t.Fatalf("consume reply:\n got %q\nwant %q", raw, want)
			}
		case opDeliver:
			deliver = raw
			want := onWire(fmt.Sprintf(`{"op":"deliver","exchange":"E.mob1","queue":"GF","routingKey":"SC.mob1.obs","headers":{"clientId":"mob1"},"body":"eyJzcGwiOjYxLjV9","publishedAt":"2020-09-13T12:26:40Z","consumerId":1,"tag":1,"messageId":%d}`, f.MessageID))
			if raw != want {
				t.Fatalf("deliver frame:\n got %q\nwant %q", raw, want)
			}
		default:
			t.Fatalf("unexpected frame %q", raw)
		}
	}
	if deliver == "" {
		t.Fatal("no delivery")
	}
	rs.send(`{"op":"ack","corr":4,"publishedAt":"0001-01-01T00:00:00Z","consumerId":1,"tag":1}`)
	if got, want := rs.next(), onWire(`{"op":"ok","corr":4,"publishedAt":"0001-01-01T00:00:00Z"}`); got != want {
		t.Fatalf("ack reply:\n got %q\nwant %q", got, want)
	}
	rs.send(goldenRequests[4])
	if got, want := rs.next(), onWire(`{"op":"ok","corr":5,"publishedAt":"0001-01-01T00:00:00Z","stats":{"name":"GF","ready":0,"unacked":0,"consumers":1,"published":1,"delivered":1,"acked":1,"dropped":0}}`); got != want {
		t.Fatalf("queue-stats reply:\n got %q\nwant %q", got, want)
	}
	if len(rs.flows) == 0 {
		t.Fatal("no flow frame for the paused queue")
	}
	for _, got := range rs.flows {
		if want := onWire(`{"op":"flow","queue":"Q.full","publishedAt":"0001-01-01T00:00:00Z","paused":true}`); got != want {
			t.Fatalf("flow frame:\n got %q\nwant %q", got, want)
		}
	}
}

// TestWireRetiredAdminOps: the server provisions topology in process,
// so a peer that still sends an admin op gets an error, its session
// keeps publishing, and GF keeps what is published to it. Before, any
// TCP peer could delete GF (every later publish acknowledged with zero
// deliveries) or bind a queue of its own to read every contributor's
// observations.
func TestWireRetiredAdminOps(t *testing.T) {
	for _, tc := range []struct{ op, req string }{
		{"declare-queue", `{"op":"declare-queue","corr":1,"queue":"Q.mine"}`},
		{"delete-queue", `{"op":"delete-queue","corr":1,"queue":"GF"}`},
		{"bind-queue", `{"op":"bind-queue","corr":1,"queue":"GF","exchange":"E.mob1","pattern":"#"}`},
	} {
		t.Run(tc.op, func(t *testing.T) {
			b, s := startServer(t)
			if err := b.DeclareExchange("E.mob1", Topic); err != nil {
				t.Fatal(err)
			}
			if err := b.DeclareQueue("GF", QueueOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := b.BindQueue("GF", "E.mob1", "SC.#"); err != nil {
				t.Fatal(err)
			}
			rs := dialRaw(t, s)
			rs.send(tc.req)
			if got, want := rs.next(), onWire(`{"op":"error","corr":1,"error":"mq: unknown op `+tc.op+`","publishedAt":"0001-01-01T00:00:00Z"}`); got != want {
				t.Fatalf("%s reply:\n got %q\nwant %q", tc.op, got, want)
			}
			rs.send(goldenRequests[0])
			if got, want := rs.next(), onWire(`{"op":"ok","corr":1,"publishedAt":"0001-01-01T00:00:00Z","delivered":1}`); got != want {
				t.Fatalf("publish after %s:\n got %q\nwant %q", tc.op, got, want)
			}
			if st, err := b.QueueStats("GF"); err != nil || st.Ready != 1 {
				t.Fatalf("GF after %s: %+v, %v; want the publish stored", tc.op, st, err)
			}
		})
	}
}

// TestReadFrameAllocatesWhatArrives: a length prefix claiming the
// largest frame, followed by 100 bytes and the end of the stream, fails
// with io.ErrUnexpectedEOF without allocating the claimed 16 MiB.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var in bytes.Buffer
	_ = binary.Write(&in, binary.BigEndian, uint32(maxFrameBytes))
	in.Write(bytes.Repeat([]byte{'x'}, 100))
	r := bufio.NewReader(&in)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a cut-short frame allocated %d bytes", grew)
	}
}

// FuzzReadFrame throws arbitrary bytes at the broker frame reader, the
// first code every session runs on bytes from a TCP peer. The reader
// never panics or claims more bytes than it was given; the payload read
// allocates at most the bytes that arrived plus one 64 KiB chunk (twice
// them once a large payload is whole and joined); and a frame it
// accepts re-encodes to a frame that decodes to the same frame.
func FuzzReadFrame(f *testing.F) {
	for _, p := range goldenRequests {
		f.Add([]byte(onWire(p)))
	}
	f.Add([]byte(onWire(`{"op":"deliver","exchange":"E.mob1","queue":"GF","routingKey":"SC.mob1.obs","body":"eA==","publishedAt":"2020-09-13T12:26:40Z","consumerId":1,"tag":1,"messageId":3}`)))
	f.Add([]byte(onWire(`{"op":"flow","queue":"Q.full","publishedAt":"0001-01-01T00:00:00Z","paused":true}`)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 'n', 'u', 'l', 'l'})
	f.Add([]byte{1, 0, 0, 0, '{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n <= maxFrameBytes {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := readPayload(bytes.NewReader(data[4:]), int(n))
				runtime.ReadMemStats(&after)
				// The slack covers the chunk table and what the fuzzing
				// engine allocates on its own goroutines meanwhile.
				const slack = 16 << 10
				limit := uint64(len(data)) + smallFrameBytes + slack
				if err == nil {
					limit = 2*uint64(len(data)) + slack
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
					t.Fatalf("payload of %d claimed, %d arrived: allocated %d bytes (limit %d)", n, len(data)-4, grew, limit)
				}
			}
		}

		fr, n, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if err != nil {
			return
		}
		var once bytes.Buffer
		if _, err := writeFrame(&once, fr); err != nil {
			t.Fatalf("re-encode %+v: %v", fr, err)
		}
		back, m, err := readFrame(bufio.NewReader(bytes.NewReader(once.Bytes())))
		if err != nil || m != once.Len() {
			t.Fatalf("re-encoded frame read back %d of %d bytes: %v", m, once.Len(), err)
		}
		var twice bytes.Buffer
		if _, err := writeFrame(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("frame is not a fixed point:\n%q\n%q", once.Bytes(), twice.Bytes())
		}
	})
}
