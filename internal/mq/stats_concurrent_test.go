package mq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsSamplingDoesNotStallPublishers runs a publish-heavy load
// while a sampler hammers Stats/QueueStatsFast as fast as it can. The
// counters are atomics, so sampling never takes a lock a publisher
// wants; the test asserts full progress on both sides, exact counter
// totals, and monotonicity of the sampled counters. Run with -race.
func TestStatsSamplingDoesNotStallPublishers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{MaxLen: 100}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "k"); err != nil {
		t.Fatal(err)
	}

	const publishers = 4
	const perPublisher = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var samples atomic.Uint64

	// Samplers: broker stats, locked queue stats and the fast path,
	// all concurrently with the publishers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastPublished uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				published, _ := publishedTotals(b.Stats())
				if published < lastPublished {
					t.Errorf("published went backwards: %d -> %d", lastPublished, published)
					return
				}
				lastPublished = published
				if _, err := b.QueueStatsFast("q"); err != nil {
					t.Errorf("fast stats: %v", err)
					return
				}
				if _, err := b.QueueStats("q"); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				samples.Add(1)
			}
		}()
	}

	start := time.Now()
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}()
	}
	pubWG.Wait()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	st := b.Stats()
	published, unroutable := publishedTotals(st)
	if want := uint64(publishers * perPublisher); published != want {
		t.Fatalf("published = %d, want %d", published, want)
	}
	if st.Routed != published || unroutable != 0 {
		t.Fatalf("routing totals off: %+v", st)
	}
	qs, err := b.QueueStatsFast("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.Published != published {
		t.Fatalf("queue published = %d, want %d", qs.Published, published)
	}
	if qs.Ready > 100 {
		t.Fatalf("ready %d exceeds MaxLen", qs.Ready)
	}
	if samples.Load() == 0 {
		t.Fatal("samplers made no progress while publishers ran")
	}
	t.Logf("published %d in %v with %d concurrent stat samples", published, elapsed, samples.Load())
}

// TestQueueStatsFastMatchesLocked cross-checks the lock-free snapshot
// against the locked one when the queue is quiescent.
func TestQueueStatsFastMatchesLocked(t *testing.T) {
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
	for i := 0; i < 10; i++ {
		if _, err := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	d, found, err := getOne(b, "q")
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	if err := ackGot(b, "q", d.Tag); err != nil {
		t.Fatal(err)
	}
	d2, _, err := getOne(b, "q")
	if err != nil {
		t.Fatal(err)
	}
	_ = d2 // left unacked on purpose

	slow, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := b.QueueStatsFast("q")
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Fatalf("snapshots differ:\nlocked = %+v\nfast   = %+v", slow, fast)
	}
	if fast.Ready != 8 || fast.Unacked != 1 || fast.Acked != 1 {
		t.Fatalf("unexpected state: %+v", fast)
	}
}

// TestHooksObserveBrokerEvents checks the broker's per-exchange and
// per-queue counters across publish, deliver, ack, nack and drop —
// the counts the server's mq_* metric families read.
func TestHooksObserveBrokerEvents(t *testing.T) {
	b := NewBroker()
	defer b.Close()

	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{MaxLen: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC)

	// 5 publishes into MaxLen 3: two overflow drops.
	for i := 0; i < 5; i++ {
		if _, err := b.PublishAt("x", "k", nil, []byte(fmt.Sprintf("m%d", i)), base); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver one and ack it, deliver another and nack-drop it.
	d, found, err := getOne(b, "q")
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	if err := ackGot(b, "q", d.Tag); err != nil {
		t.Fatal(err)
	}
	d, found, err = getOne(b, "q")
	if err != nil || !found {
		t.Fatalf("get: %v %v", found, err)
	}
	b.mu.RLock()
	q := b.queues["q"]
	b.mu.RUnlock()
	if err := q.nack(d.Tag, false); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	published, _ := publishedTotals(st)
	qs, err := b.QueueStatsFast("q")
	if err != nil {
		t.Fatal(err)
	}
	if published != 5 || qs.Published != 5 {
		t.Fatalf("published/enqueued = %d/%d, want 5/5", published, qs.Published)
	}
	if qs.Delivered != 2 || qs.Acked != 1 || qs.Nacked != 1 {
		t.Fatalf("delivered/acked/nacked = %d/%d/%d, want 2/1/1", qs.Delivered, qs.Acked, qs.Nacked)
	}
	// 2 overflow drops + 1 nack drop.
	if qs.Dropped != 3 || qs.Overflowed != 2 {
		t.Fatalf("dropped/overflowed = %d/%d, want 3/2", qs.Dropped, qs.Overflowed)
	}
}
