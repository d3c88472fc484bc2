package mq

import (
	"bytes"
	"log"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQueueWatermarkTransitions drives the ready depth across the
// watermarks broker-side and checks the transition counts and the
// subscription events.
func TestQueueWatermarkTransitions(t *testing.T) {
	b := NewBroker()
	flow := func() QueueStats {
		t.Helper()
		st, err := b.QueueStatsFast("q")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sub := b.SubscribeFlow()
	defer b.UnsubscribeFlow(sub)

	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{HighWatermark: 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}

	// 3 messages: below the high watermark, no pause.
	for i := 0; i < 3; i++ {
		if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := flow().FlowPauses; got != 0 {
		t.Fatalf("paused fired %d times below watermark", got)
	}
	// 4th message reaches the high watermark: one pause.
	if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := flow().FlowPauses; got != 1 {
		t.Fatalf("paused fired %d times at watermark, want 1", got)
	}
	if got := b.PausedQueues(); len(got) != 1 || got[0] != "q" {
		t.Fatalf("PausedQueues = %v, want [q]", got)
	}
	// More publishes while paused do not re-fire.
	if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if got := flow().FlowPauses; got != 1 {
		t.Fatalf("paused re-fired while already paused: %d", got)
	}

	// Drain via get+ack down to the low watermark: one resume.
	for i := 0; i < 3; i++ {
		d, found, err := getOne(b, "q")
		if err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
		if err := ackGot(b, "q", d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if got := flow().FlowResumes; got != 1 {
		t.Fatalf("resumed fired %d times at low watermark, want 1", got)
	}
	if got := b.PausedQueues(); len(got) != 0 {
		t.Fatalf("PausedQueues after resume = %v, want empty", got)
	}

	// The subscription coalesced to the latest state: resumed.
	select {
	case <-sub.C():
	default:
		t.Fatal("flow subscription never signalled")
	}
	events := sub.Drain()
	if len(events) != 1 || events[0].Queue != "q" || events[0].Paused {
		t.Fatalf("coalesced events = %+v, want [{q false}]", events)
	}
}

// TestFlowRoundTripOnWire proves the pause/resume round-trips to a
// client: the publisher observes FlowPaused at the high watermark and
// FlowResumed after the consumer drains to the low watermark.
func TestFlowRoundTripOnWire(t *testing.T) {
	b := NewBroker()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{HighWatermark: 8}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		if _, err := pub.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "publisher observes pause", func() bool {
		q := pausedQueues(pub)
		return len(q) == 1 && q[0] == "q"
	})

	// Drain on a second connection past the low watermark.
	rc := drainer(t, srv)
	for i := 0; i < 4; i++ {
		ackNext(t, rc)
	}
	waitFor(t, "publisher observes resume", func() bool {
		return len(pausedQueues(pub)) == 0
	})
}

// TestFlowSnapshotOnConnect: a connection dialed while a queue is
// already paused learns the state without waiting for a transition.
func TestFlowSnapshotOnConnect(t *testing.T) {
	b := NewBroker()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{HighWatermark: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.PausedQueues(); len(got) != 1 {
		t.Fatalf("queue not paused broker-side: %v", got)
	}

	late, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	waitFor(t, "late connection got the snapshot", func() bool {
		q := pausedQueues(late)
		return len(q) == 1 && q[0] == "q"
	})
}

// TestFlowGateBlocksPublish: a publish issued while paused completes
// when the resume arrives, well before the gate's own timeout.
func TestFlowGateBlocksPublish(t *testing.T) {
	b := NewBroker()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pub, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{HighWatermark: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pub.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "pause observed", func() bool { return len(pausedQueues(pub)) == 1 })

	published := make(chan error, 1)
	go func() {
		_, err := pub.PublishAt("x", "k", nil, []byte("gated"), time.Now())
		published <- err
	}()
	select {
	case err := <-published:
		t.Fatalf("publish completed while paused (err=%v), want gated", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Drain to the low watermark; the resume must release the gated
	// publish well inside the rest of defaultFlowWait.
	ackNext(t, drainer(t, srv))
	select {
	case err := <-published:
		if err != nil {
			t.Fatalf("gated publish failed: %v", err)
		}
	case <-time.After(defaultFlowWait / 2):
		t.Fatal("gated publish not released by the resume")
	}
}

// TestOverflowHookAndRateLimitedWarn exercises the MaxLen overflow
// accounting: the queue counts every drop as an overflow and the log
// warn is rate-limited to one line per queue per minute.
func TestOverflowHookAndRateLimitedWarn(t *testing.T) {
	b := NewBroker()

	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{MaxLen: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}

	// Virtual clock on the queue so the warn window is deterministic.
	b.mu.RLock()
	q := b.queues["q"]
	b.mu.RUnlock()
	now := time.Unix(1_700_000_000, 0)
	q.mu.Lock()
	q.now = func() time.Time { return now }
	q.mu.Unlock()

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	publishN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}

	publishN(5) // 3 overflow drops inside one minute
	if st, _ := b.QueueStatsFast("q"); st.Overflowed != 3 || st.Dropped != 3 {
		t.Fatalf("overflowed/dropped = %d/%d, want 3/3", st.Overflowed, st.Dropped)
	}
	if got := strings.Count(buf.String(), "overflow"); got != 1 {
		t.Fatalf("overflow warned %d times within a minute, want 1:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), `queue "q"`) {
		t.Fatalf("warn does not name the queue:\n%s", buf.String())
	}

	// Advance past the window: next overflow warns again, carrying the
	// accumulated drop count.
	now = now.Add(61 * time.Second)
	publishN(2)
	if got := strings.Count(buf.String(), "overflow"); got != 2 {
		t.Fatalf("overflow warned %d times across windows, want 2:\n%s", got, buf.String())
	}
}

// TestWatermarkDefaults checks the low watermark's derivation.
func TestWatermarkDefaults(t *testing.T) {
	for _, c := range []struct{ hw, low int }{{10, 5}, {4, 2}, {3, 1}, {1, 0}} {
		q := newQueue("q", QueueOptions{HighWatermark: c.hw}, nil)
		if got := q.lowWatermark(); got != c.low {
			t.Fatalf("low watermark for HW=%d = %d, want %d", c.hw, got, c.low)
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pausedQueues is the sorted set of queues c was asked to pause for.
func pausedQueues(c *Conn) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.flowPaused))
	for q := range c.flowPaused {
		names = append(names, q)
	}
	sort.Strings(names)
	return names
}

// drainer consumes q, one delivery in flight at a time, on a connection
// of its own.
func drainer(t *testing.T, srv *Server) *RemoteConsumer {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	rc, err := c.Consume("q", 1)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// ackNext acknowledges rc's next delivery.
func ackNext(t *testing.T, rc *RemoteConsumer) {
	t.Helper()
	select {
	case d := <-rc.C():
		if err := rc.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to drain")
	}
}
