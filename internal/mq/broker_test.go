package mq

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustDeclare(t *testing.T, b *Broker, exchange string, typ ExchangeType, queues ...string) {
	t.Helper()
	if err := b.DeclareExchange(exchange, typ); err != nil {
		t.Fatal(err)
	}
	for _, q := range queues {
		if err := b.DeclareQueue(q, QueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeclareExchangeIdempotentAndTypeConflict(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatalf("redeclare same type: %v", err)
	}
	err := b.DeclareExchange("x", Fanout)
	if !errors.Is(err, ErrExchangeExists) {
		t.Fatalf("redeclare different type = %v, want ErrExchangeExists", err)
	}
}

func TestDeclareValidation(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("", Topic); err == nil {
		t.Fatal("empty exchange name must fail")
	}
	if err := b.DeclareExchange("x", ExchangeType(99)); err == nil {
		t.Fatal("invalid exchange type must fail")
	}
	if err := b.DeclareQueue("", QueueOptions{}); err == nil {
		t.Fatal("empty queue name must fail")
	}
}

func TestDirectRouting(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "d", Direct, "q1", "q2")
	if err := b.BindQueue("q1", "d", "red"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q2", "d", "blue"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("d", "red", nil, []byte("m"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("Publish red: n=%d err=%v, want 1", n, err)
	}
	if st, _ := b.QueueStats("q1"); st.Ready != 1 {
		t.Fatalf("q1 ready = %d, want 1", st.Ready)
	}
	if st, _ := b.QueueStats("q2"); st.Ready != 0 {
		t.Fatalf("q2 ready = %d, want 0", st.Ready)
	}
}

func TestFanoutRouting(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "f", Fanout, "q1", "q2", "q3")
	for _, q := range []string{"q1", "q2", "q3"} {
		if err := b.BindQueue(q, "f", ""); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.PublishAt("f", "ignored", nil, []byte("m"), time.Now())
	if err != nil || n != 3 {
		t.Fatalf("fanout delivered to %d queues (err=%v), want 3", n, err)
	}
}

func TestTopicRouting(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "t", Topic, "all", "paris", "feedback")
	if err := b.BindQueue("all", "t", "#"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("paris", "t", "SC.*.*.FR75013"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("feedback", "t", "SC.*.feedback.#"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("t", "SC.mob1.feedback.FR75013", nil, []byte("m"), time.Now())
	if err != nil || n != 3 {
		t.Fatalf("delivered to %d queues (err=%v), want 3", n, err)
	}
	n, err = b.PublishAt("t", "SC.mob1.obs.FR92120", nil, []byte("m"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("delivered to %d queues (err=%v), want 1 (all)", n, err)
	}
}

func TestExchangeToExchangeChain(t *testing.T) {
	// The paper's topology: client exchange -> app exchange -> GoFlow
	// exchange -> GoFlow queue, with a client-id filter at the first
	// hop.
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "E.mob1", Topic)
	mustDeclare(t, b, "SC", Topic)
	mustDeclare(t, b, "GFX", Topic, "GF")
	if err := b.BindExchange("SC", "E.mob1", "SC.mob1.#"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindExchange("GFX", "SC", "#"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("GF", "GFX", "#"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("E.mob1", "SC.mob1.obs.FR75013", nil, []byte("m"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("chain delivered to %d queues (err=%v), want 1", n, err)
	}
	// Spoofed client id must be filtered at the first hop.
	n, err = b.PublishAt("E.mob1", "SC.mob2.obs.FR75013", nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("spoofed key delivered to %d queues (err=%v), want 0", n, err)
	}
}

func TestExchangeCycleTerminates(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "a", Fanout)
	mustDeclare(t, b, "b", Fanout, "q")
	if err := b.BindExchange("b", "a", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.BindExchange("a", "b", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "b", ""); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("a", "k", nil, []byte("m"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("cyclic topology delivered %d (err=%v), want exactly 1", n, err)
	}
}

func TestPublishUnroutableAndMissing(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "x", Topic)
	n, err := b.PublishAt("x", "nobody.listens", nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("unroutable publish: n=%d err=%v", n, err)
	}
	if _, unroutable := publishedTotals(b.Stats()); unroutable != 1 {
		t.Fatalf("unroutable counter = %d, want 1", unroutable)
	}
	_, err = b.PublishAt("missing", "k", nil, nil, time.Now())
	if !errors.Is(err, ErrExchangeNotFound) {
		t.Fatalf("publish to missing exchange = %v, want ErrExchangeNotFound", err)
	}
}

func TestDeleteQueueRemovesBindings(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "x", Fanout, "q")
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeleteQueue("q"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("publish after queue delete: n=%d err=%v, want 0", n, err)
	}
	if _, err := b.DeleteQueue("q"); !errors.Is(err, ErrQueueNotFound) {
		t.Fatalf("double delete = %v, want ErrQueueNotFound", err)
	}
}

func TestDeleteExchangeRemovesExchangeBindings(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "src", Fanout)
	mustDeclare(t, b, "dst", Fanout, "q")
	if err := b.BindExchange("dst", "src", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "dst", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeleteExchange("dst"); err != nil {
		t.Fatal(err)
	}
	// src's binding to dst must be gone; publish is simply unroutable.
	n, err := b.PublishAt("src", "k", nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("publish after exchange delete: n=%d err=%v", n, err)
	}
}

func TestUnbindQueue(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "x", Topic, "q")
	if err := b.BindQueue("q", "x", "a.#"); err != nil {
		t.Fatal(err)
	}
	if err := b.UnbindQueue("q", "x", "a.#"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishAt("x", "a.b", nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("publish after unbind: n=%d err=%v", n, err)
	}
}

func TestDuplicateBindingCollapsed(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "x", Topic, "q")
	for i := 0; i < 3; i++ {
		if err := b.BindQueue("q", "x", "k"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("duplicate bindings delivered %d copies, want 1", n)
	}
	if st, _ := b.QueueStats("q"); st.Ready != 1 {
		t.Fatalf("q ready = %d, want 1", st.Ready)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker()
	mustDeclare(t, b, "x", Topic, "q")
	b.Close()
	if err := b.DeclareQueue("q2", QueueOptions{}); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("declare after close = %v, want ErrBrokerClosed", err)
	}
	if _, err := b.PublishAt("x", "k", nil, nil, time.Now()); !errors.Is(err, ErrBrokerClosed) && !errors.Is(err, ErrExchangeNotFound) {
		t.Fatalf("publish after close = %v", err)
	}
	b.Close() // idempotent
}

func TestConcurrentPublishAndConsume(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	mustDeclare(t, b, "x", Fanout, "q")
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		perProd   = 200
	)
	consumer, err := b.Consume("q", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if _, err := b.PublishAt("x", "k", nil, []byte(fmt.Sprintf("%d-%d", p, i)), time.Now()); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	received := make(map[string]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range consumer.C() {
			received[string(d.Body)] = true
			if err := consumer.Ack(d.Tag); err != nil {
				t.Errorf("ack: %v", err)
			}
			if len(received) == producers*perProd {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	consumer.Cancel()
	if len(received) != producers*perProd {
		t.Fatalf("received %d distinct messages, want %d", len(received), producers*perProd)
	}
}
