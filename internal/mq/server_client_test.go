package mq

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Broker, *Server) {
	t.Helper()
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return b, s
}

func dialTest(t *testing.T, s *Server) *Conn {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestWireFrameRoundTrip(t *testing.T) {
	f := &frame{
		Op:         opPublish,
		Corr:       7,
		Exchange:   "SC",
		RoutingKey: "SC.mob1.obs.FR75013",
		Headers:    map[string]string{"clientId": "mob1"},
		Body:       []byte(`{"spl":61.5}`),
	}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, _, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != f.Op || got.Corr != f.Corr || got.Exchange != f.Exchange ||
		got.RoutingKey != f.RoutingKey || string(got.Body) != string(f.Body) ||
		got.Headers["clientId"] != "mob1" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWireOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame length must be rejected")
	}
}

func TestRemotePublishConsumeAck(t *testing.T) {
	b, s := startServer(t)
	c := dialTest(t, s)

	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "a.#"); err != nil {
		t.Fatal(err)
	}
	n, err := c.PublishAt("x", "a.b", map[string]string{"h": "v"}, []byte("hello"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("remote publish: n=%d err=%v", n, err)
	}
	rc, err := c.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	var d Delivery
	select {
	case d = <-rc.C():
	case <-time.After(5 * time.Second):
		t.Fatal("no remote delivery")
	}
	if string(d.Body) != "hello" || d.Headers["h"] != "v" || d.RoutingKey != "a.b" {
		t.Fatalf("delivery mismatch: %+v", d)
	}
	if err := rc.Ack(d.Tag); err != nil {
		t.Fatal(err)
	}
	st, err := c.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked != 1 || st.Ready != 0 {
		t.Fatalf("remote stats: %+v", st)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, s := startServer(t)
	c := dialTest(t, s)
	if _, err := c.PublishAt("missing", "k", nil, nil, time.Now()); err == nil {
		t.Fatal("publish to missing exchange must fail remotely")
	}
	if _, err := c.Consume("missing", 1); err == nil {
		t.Fatal("consume from a missing queue must fail remotely")
	}
}

func TestRemoteConsume(t *testing.T) {
	b, s := startServer(t)
	pub := dialTest(t, s)
	sub := dialTest(t, s)

	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	const total = 50
	for i := 0; i < total; i++ {
		if _, err := pub.PublishAt("x", "k", nil, []byte(fmt.Sprintf("m%d", i)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]bool)
	deadline := time.After(5 * time.Second)
	for len(got) < total {
		select {
		case d, open := <-rc.C():
			if !open {
				t.Fatalf("consumer closed after %d deliveries", len(got))
			}
			got[string(d.Body)] = true
			if err := rc.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d deliveries", len(got), total)
		}
	}
	if err := rc.Cancel(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteConsumerDisconnectRequeues(t *testing.T) {
	b, s := startServer(t)
	pub := dialTest(t, s)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}

	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Consume("q", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Kill the mobile session without acking: the message must come
	// back to the queue (the paper's buffering-for-mobile-sessions
	// behaviour).
	_ = sub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := b.QueueStats("q")
		if err != nil {
			t.Fatal(err)
		}
		if st.Ready == 1 && st.Unacked == 0 && st.Consumers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("message not requeued after disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	b, s := startServer(t)
	setup := dialTest(t, s)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	const (
		clients = 6
		each    = 50
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < each; j++ {
				if _, err := c.PublishAt("x", "k", nil, []byte{byte(i), byte(j)}, time.Now()); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st, err := setup.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != clients*each {
		t.Fatalf("published = %d, want %d", st.Published, clients*each)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	b, s := startServer(t)
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, s)
	if _, err := c.QueueStats("q"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Subsequent RPCs must fail, not hang.
	errCh := make(chan error, 1)
	go func() {
		_, err := c.QueueStats("q")
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("RPC after server close must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RPC after server close hung")
	}
}

// TestRemotePublishBatch sends a whole batch in one wire frame and
// verifies per-message routing and delivery counts.
func TestRemotePublishBatch(t *testing.T) {
	b, s := startServer(t)
	c := dialTest(t, s)
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "a.*"); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	n, err := c.PublishBatch("x", []PublishItem{
		{RoutingKey: "a.1", Body: []byte("m1"), At: at},
		{RoutingKey: "nope", Body: []byte("m2"), At: at},
		{RoutingKey: "a.3", Body: []byte("m3")}, // no timestamp: broker stamps
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("batch delivered %d, want 2", n)
	}
	rc, err := c.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	next := func() Delivery {
		t.Helper()
		select {
		case d := <-rc.C():
			if err := rc.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
			return d
		case <-time.After(5 * time.Second):
			t.Fatal("no delivery")
			return Delivery{}
		}
	}
	if d := next(); string(d.Body) != "m1" || !d.PublishedAt.Equal(at) {
		t.Fatalf("first delivery = %q at %v", d.Body, d.PublishedAt)
	}
	if d := next(); string(d.Body) != "m3" || d.PublishedAt.IsZero() {
		t.Fatalf("second delivery = %q at %v", d.Body, d.PublishedAt)
	}
}

// TestSessionBufferDrainsInOrderAfterDisconnect is the paper's
// session-buffering story end to end: a mobile session receives part
// of its backlog, dies mid-consume with deliveries unacked and more
// messages still queued, and a fresh session must drain everything —
// in the original publish order, with no duplicates and no loss.
func TestSessionBufferDrainsInOrderAfterDisconnect(t *testing.T) {
	b, s := startServer(t)
	pub := dialTest(t, s)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := pub.PublishAt("x", "k", nil, []byte(fmt.Sprintf("m%d", i)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}

	// Session A: prefetch 4, reads three deliveries, acks only the
	// first, then dies. In flight and unacked at death: m1, m2, m3
	// (read but never acked) and m4 (delivered after the ack freed a
	// prefetch slot, never read).
	subA, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rcA, err := subA.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case d := <-rcA.C():
			if string(d.Body) != fmt.Sprintf("m%d", i) {
				t.Fatalf("session A delivery %d = %q", i, d.Body)
			}
			if i == 0 {
				if err := rcA.Ack(d.Tag); err != nil {
					t.Fatal(err)
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("session A missing delivery %d", i)
		}
	}
	_ = subA.Close()

	// The server requeues A's unacked deliveries ahead of the queued
	// backlog: m1..m4 then m5..m9.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := b.QueueStats("q")
		if err != nil {
			t.Fatal(err)
		}
		if st.Ready == total-1 && st.Unacked == 0 && st.Consumers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session buffer not restored: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Session B drains the buffer: original order, each exactly once,
	// the previously-delivered prefix flagged redelivered.
	subB, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = subB.Close() })
	rcB, err := subB.Consume("q", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < total; i++ {
		select {
		case d := <-rcB.C():
			if string(d.Body) != fmt.Sprintf("m%d", i) {
				t.Fatalf("drain position %d = %q, want m%d (order lost)", i, d.Body, i)
			}
			if redelivered := i <= 4; d.Redelivered != redelivered {
				t.Fatalf("m%d Redelivered = %v, want %v", i, d.Redelivered, redelivered)
			}
			if err := rcB.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("drain missing m%d", i)
		}
	}
	select {
	case d := <-rcB.C():
		t.Fatalf("duplicate delivery %q after full drain", d.Body)
	case <-time.After(50 * time.Millisecond):
	}
	st, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 0 || st.Unacked != 0 {
		t.Fatalf("queue not empty after drain: %+v", st)
	}
}
