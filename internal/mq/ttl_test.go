package mq

import (
	"testing"
	"time"
)

// setQueueClock overrides a queue's clock for TTL tests.
func setQueueClock(t *testing.T, b *Broker, queueName string, now func() time.Time) {
	t.Helper()
	b.mu.RLock()
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		t.Fatalf("queue %q not found", queueName)
	}
	q.mu.Lock()
	q.now = now
	q.mu.Unlock()
}

func TestTTLExpiresStaleMessages(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}

	base := time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC)
	clock := base
	setQueueClock(t, b, "q", func() time.Time { return clock })

	// Two messages published at base, one at base+90m.
	if _, err := b.PublishAt("x", "k", nil, []byte("old-1"), base); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishAt("x", "k", nil, []byte("old-2"), base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishAt("x", "k", nil, []byte("fresh"), base.Add(90*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// At base+2h, the two old messages are past the 1h TTL.
	clock = base.Add(2 * time.Hour)
	st, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 1 || st.Expired != 2 {
		t.Fatalf("after expiry: ready=%d expired=%d, want 1/2", st.Ready, st.Expired)
	}
	d, found, err := b.Get("q")
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	if string(d.Body) != "fresh" {
		t.Fatalf("surviving message = %q, want fresh", d.Body)
	}
	if err := b.AckGet("q", d.Tag); err != nil {
		t.Fatal(err)
	}
}

func TestTTLZeroNeverExpires(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := b.PublishAt("x", "k", nil, []byte("ancient"), old); err != nil {
		t.Fatal(err)
	}
	st, err := b.QueueStats("q")
	if err != nil || st.Ready != 1 || st.Expired != 0 {
		t.Fatalf("no-TTL queue expired messages: %+v err=%v", st, err)
	}
}

func TestTTLExpiryBeforeDispatch(t *testing.T) {
	// A consumer subscribing after the TTL elapsed must not receive
	// the stale message.
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC)
	clock := base
	setQueueClock(t, b, "q", func() time.Time { return clock })
	if _, err := b.PublishAt("x", "k", nil, []byte("stale"), base); err != nil {
		t.Fatal(err)
	}
	clock = base.Add(5 * time.Minute)
	c, err := b.Consume("q", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	select {
	case d := <-c.C():
		t.Fatalf("stale message delivered: %q", d.Body)
	case <-time.After(50 * time.Millisecond):
	}
	st, _ := b.QueueStats("q")
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
}

func TestTTLOverWire(t *testing.T) {
	b, s := startServer(t)
	c := dialTest(t, s)
	if err := b.DeclareQueue("q", QueueOptions{TTL: 250 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Fresh: visible.
	st, err := c.QueueStats("q")
	if err != nil || st.Ready != 1 {
		t.Fatalf("fresh: %+v err=%v", st, err)
	}
	time.Sleep(400 * time.Millisecond)
	st, err = c.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 0 || st.Expired != 1 {
		t.Fatalf("after wire TTL: %+v", st)
	}
}
