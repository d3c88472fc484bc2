package mq

import (
	"runtime"
	"testing"
	"time"
)

// Goroutine hygiene: servers, consumers and connections must not leak
// goroutines after Close (stdlib-only stand-in for goleak).

// stableGoroutines samples the goroutine count until it stops
// shrinking (letting exiting goroutines finish).
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

func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)

	for round := 0; round < 3; round++ {
		broker := NewBroker()
		server, err := NewServer(broker, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := Dial(server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := broker.DeclareExchange("x", Fanout); err != nil {
			t.Fatal(err)
		}
		if err := broker.DeclareQueue("q", QueueOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := broker.BindQueue("q", "x", ""); err != nil {
			t.Fatal(err)
		}
		rc, err := conn.Consume("q", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-rc.C():
			if err := rc.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no delivery")
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		server.Close()
		broker.Close()
	}

	after := stableGoroutines(t)
	// Allow a small slop for runtime/test goroutines, but repeated
	// create/close cycles must not accumulate.
	if after > before+3 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

func TestConsumerCancelLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)
	b := NewBroker()
	for i := 0; i < 20; i++ {
		if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
			t.Fatal(err)
		}
		c, err := b.Consume("q", 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Cancel()
	}
	b.Close()
	after := stableGoroutines(t)
	if after > before+3 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}
