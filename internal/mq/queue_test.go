package mq

import (
	"errors"
	"testing"
	"time"
)

func newTestQueue(t *testing.T, opts QueueOptions) (*Broker, string) {
	t.Helper()
	b := NewBroker()
	t.Cleanup(b.Close)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", opts); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	return b, "q"
}

func publishN(t *testing.T, b *Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.PublishAt("x", "k", nil, []byte{byte(i)}, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetAckLifecycle(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	publishN(t, b, 2)

	d1, found, err := getOne(b, q)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	st, _ := b.QueueStats(q)
	if st.Ready != 1 || st.Unacked != 1 {
		t.Fatalf("after get: ready=%d unacked=%d, want 1/1", st.Ready, st.Unacked)
	}
	if err := ackGot(b, q, d1.Tag); err != nil {
		t.Fatal(err)
	}
	st, _ = b.QueueStats(q)
	if st.Unacked != 0 || st.Acked != 1 {
		t.Fatalf("after ack: unacked=%d acked=%d", st.Unacked, st.Acked)
	}
	// Double ack fails.
	if err := ackGot(b, q, d1.Tag); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("double ack = %v, want ErrUnknownTag", err)
	}
}

func TestGetEmptyQueue(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	_, found, err := getOne(b, q)
	if err != nil || found {
		t.Fatalf("Get on empty queue: found=%v err=%v", found, err)
	}
}

func TestNackRequeueMarksRedelivered(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	publishN(t, b, 1)
	c, err := b.Consume(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := <-c.C()
	if err := c.Nack(d.Tag, true); err != nil {
		t.Fatal(err)
	}
	var d2 Delivery
	select {
	case d2 = <-c.C():
	case <-time.After(2 * time.Second):
		t.Fatal("requeued message not redelivered")
	}
	if !d2.Redelivered {
		t.Fatal("requeued message must be marked redelivered")
	}
	if d2.ID != d.ID {
		t.Fatalf("redelivered id %d != original %d", d2.ID, d.ID)
	}
}

func TestNackDropDiscards(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	publishN(t, b, 1)
	c, err := b.Consume(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := <-c.C()
	if err := c.Nack(d.Tag, false); err != nil {
		t.Fatal(err)
	}
	st, _ := b.QueueStats(q)
	if st.Ready != 0 || st.Unacked != 0 || st.Dropped != 1 {
		t.Fatalf("after nack-drop: %+v", st)
	}
}

func TestMaxLenDropsOldest(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{MaxLen: 3})
	publishN(t, b, 5)
	st, _ := b.QueueStats(q)
	if st.Ready != 3 || st.Dropped != 2 {
		t.Fatalf("maxlen queue: ready=%d dropped=%d, want 3/2", st.Ready, st.Dropped)
	}
	// The survivors are the newest messages (bodies 2,3,4).
	d, _, err := getOne(b, q)
	if err != nil {
		t.Fatal(err)
	}
	if d.Body[0] != 2 {
		t.Fatalf("oldest surviving body = %d, want 2", d.Body[0])
	}
}

func TestConsumerReceivesBacklogAndLive(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	publishN(t, b, 3) // backlog before subscribing
	c, err := b.Consume(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	got := 0
	timeout := time.After(2 * time.Second)
	for got < 3 {
		select {
		case d := <-c.C():
			if err := c.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
			got++
		case <-timeout:
			t.Fatalf("timed out after %d backlog deliveries", got)
		}
	}
	publishN(t, b, 2) // live messages
	for got < 5 {
		select {
		case d := <-c.C():
			if err := c.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
			got++
		case <-timeout:
			t.Fatalf("timed out after %d live deliveries", got)
		}
	}
}

func TestPrefetchLimitsInFlight(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	publishN(t, b, 10)
	c, err := b.Consume(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	// Receive two without acking: no third delivery may arrive.
	d1 := <-c.C()
	d2 := <-c.C()
	select {
	case d := <-c.C():
		t.Fatalf("received third delivery %v beyond prefetch 2", d.Tag)
	case <-time.After(50 * time.Millisecond):
	}
	st, _ := b.QueueStats(q)
	if st.Unacked != 2 {
		t.Fatalf("unacked = %d, want 2", st.Unacked)
	}
	// Acking frees a slot.
	if err := c.Ack(d1.Tag); err != nil {
		t.Fatal(err)
	}
	select {
	case d3 := <-c.C():
		if err := c.Ack(d3.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery after ack freed prefetch slot")
	}
	if err := c.Ack(d2.Tag); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinAcrossConsumers(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	c1, err := b.Consume(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Cancel()
	c2, err := b.Consume(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Cancel()
	publishN(t, b, 10)

	count1, count2 := 0, 0
	deadline := time.After(2 * time.Second)
	for count1+count2 < 10 {
		select {
		case d := <-c1.C():
			count1++
			if err := c1.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case d := <-c2.C():
			count2++
			if err := c2.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("timed out with %d+%d deliveries", count1, count2)
		}
	}
	if count1 == 0 || count2 == 0 {
		t.Fatalf("competing consumers should share work: %d vs %d", count1, count2)
	}
}

func TestCancelClosesChannel(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	c, err := b.Consume(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Cancel()
	if _, open := <-c.C(); open {
		t.Fatal("cancelled consumer channel must be closed")
	}
	// Publishing after cancel keeps messages queued.
	publishN(t, b, 1)
	st, _ := b.QueueStats(q)
	if st.Ready != 1 {
		t.Fatalf("ready = %d after cancel, want 1", st.Ready)
	}
}

func TestDeleteQueueClosesConsumers(t *testing.T) {
	b, q := newTestQueue(t, QueueOptions{})
	c, err := b.Consume(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeleteQueue(q); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-c.C():
		if open {
			t.Fatal("expected closed channel after queue delete")
		}
	case <-time.After(time.Second):
		t.Fatal("consumer channel not closed after queue delete")
	}
}

func TestConsumeMissingQueue(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if _, err := b.Consume("nope", 0); !errors.Is(err, ErrQueueNotFound) {
		t.Fatalf("Consume missing = %v, want ErrQueueNotFound", err)
	}
}
