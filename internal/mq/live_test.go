package mq

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func randLivePattern(rng *rand.Rand) string {
	words := []string{"a", "b", "c", "obs", "*", "#"}
	parts := make([]string, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, ".")
}

func randLiveKey(rng *rand.Rand) string {
	words := []string{"a", "b", "c", "obs"}
	parts := make([]string, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, ".")
}

// drainLive empties a sub's mailbox into body-decoded sequence
// numbers. Fan-out is synchronous with publish, so everything mailed
// is already buffered.
func drainLive(t *testing.T, s *LiveSub) []int {
	t.Helper()
	var got []int
	for {
		select {
		case m := <-s.C():
			n, err := strconv.Atoi(string(m.Body))
			if err != nil {
				t.Fatalf("non-numeric live body %q", m.Body)
			}
			got = append(got, n)
		default:
			return got
		}
	}
}

// TestLiveDeliveryConformance is the delivery-conformance property
// test: for random topic-pattern sets and publish sequences, the
// events a live subscription receives must be exactly the events the
// reference matcher TopicMatch accepts for its patterns — in publish
// order, no duplicates, none missing. Publishes go through both
// Publish and PublishBatch so both hot paths are pinned. Reproduce a
// failure by its seed subtest name.
func TestLiveDeliveryConformance(t *testing.T) {
	const trials = 30
	const nEvents = 200
	for seed := int64(0); seed < trials; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := NewBroker()
			defer b.Close()
			if err := b.DeclareExchange("GFX", Topic); err != nil {
				t.Fatal(err)
			}

			nSubs := 1 + rng.Intn(4)
			subs := make([]*LiveSub, nSubs)
			pats := make([][]string, nSubs)
			for i := range subs {
				ps := make([]string, 1+rng.Intn(3))
				for j := range ps {
					ps[j] = randLivePattern(rng)
				}
				s, err := b.SubscribeLive("GFX", ps, LiveSubOptions{Buffer: nEvents})
				if err != nil {
					t.Fatal(err)
				}
				subs[i], pats[i] = s, ps
			}

			keys := make([]string, 0, nEvents)
			for len(keys) < nEvents {
				if rng.Intn(2) == 0 {
					// Single publish.
					k := randLiveKey(rng)
					if _, err := b.PublishAt("GFX", k, nil, []byte(strconv.Itoa(len(keys))), time.Now()); err != nil {
						t.Fatal(err)
					}
					keys = append(keys, k)
					continue
				}
				// Batch publish of 1..8 items.
				n := 1 + rng.Intn(8)
				if n > nEvents-len(keys) {
					n = nEvents - len(keys)
				}
				items := make([]PublishItem, n)
				for j := range items {
					k := randLiveKey(rng)
					items[j] = PublishItem{RoutingKey: k, Body: []byte(strconv.Itoa(len(keys)))}
					keys = append(keys, k)
				}
				if _, err := b.PublishBatch("GFX", items); err != nil {
					t.Fatal(err)
				}
			}

			for si, s := range subs {
				var want []int
				for i, k := range keys {
					for _, p := range pats[si] {
						if topicMatch(p, k) {
							want = append(want, i)
							break
						}
					}
				}
				got := drainLive(t, s)
				if len(got) != len(want) {
					t.Fatalf("sub %d (patterns %v): received %d events, oracle wants %d\ngot=%v\nwant=%v",
						si, pats[si], len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("sub %d (patterns %v): event %d is publish #%d, oracle wants #%d",
							si, pats[si], i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestLiveFanoutAcrossExchangeBindings pins that a live subscription
// taps every exchange the publish traverses, not just the one named
// in Publish: GoFlow clients publish to their private exchange, which
// forwards into the shared GFX exchange over an exchange-to-exchange
// binding, and a dashboard subscribed on GFX must see those messages.
// The second publish exercises the memoized route (the traversed
// exchange list is part of the cache entry).
func TestLiveFanoutAcrossExchangeBindings(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for _, ex := range []string{"E.c1", "SC", "GFX"} {
		if err := b.DeclareExchange(ex, Topic); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BindExchange("SC", "E.c1", "#"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindExchange("GFX", "SC", "#"); err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeLive("GFX", []string{"sc.*.obs.*"}, LiveSubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < 2; i++ { // miss then cache hit
		if _, err := b.PublishAt("E.c1", "sc.c1.obs.Z1", nil, []byte("x"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case m := <-sub.C():
			if m.RoutingKey != "sc.c1.obs.Z1" {
				t.Fatalf("routing key %q", m.RoutingKey)
			}
		default:
			t.Fatalf("publish %d did not reach the GFX live subscriber", i)
		}
	}

	// The same message must reach a sub on GFX at most once even
	// though several exchanges were traversed.
	if got := drainLive(t, sub); len(got) != 0 {
		t.Fatalf("duplicate deliveries: %v", got)
	}
}

// stubBudget sheds after a fixed number of full-queue events.
type stubBudget struct {
	fullCalls int
	shedAt    int
}

func (sb *stubBudget) Sent() {}
func (sb *stubBudget) Full() bool {
	sb.fullCalls++
	return sb.fullCalls >= sb.shedAt
}

// TestLiveSlowConsumerDropsThenSheds pins the bounded-mailbox policy:
// a full mailbox drops events (publisher never blocks), and once the
// budget reports exhaustion the subscription is shed — removed from
// the index, Done closed, Shed reported, counters advanced.
func TestLiveSlowConsumerDropsThenSheds(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	ls := countLive(b)
	if err := b.DeclareExchange("GFX", Topic); err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeLive("GFX", []string{"#"}, LiveSubOptions{
		Buffer: 1,
		Budget: &stubBudget{shedAt: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	publish := func() {
		t.Helper()
		if _, err := b.PublishAt("GFX", "k", nil, []byte("x"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	publish() // fills the 1-slot mailbox
	publish() // dropped, budget full call #1
	select {
	case <-sub.Done():
		t.Fatal("shed before the budget was exhausted")
	default:
	}
	publish() // dropped, budget full call #2 -> shed
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after budget exhaustion")
	}
	if !sub.Shed() {
		t.Fatal("Shed() = false after budget exhaustion")
	}
	if n := b.liveCount.Load(); n != 0 || ls.shed.Load() != 1 || ls.dropped.Load() != 2 || ls.delivered.Load() != 1 {
		t.Fatalf("live counters: %d subscribers, %d delivered, %d dropped, %d shed; want 0, 1, 2, 1",
			n, ls.delivered.Load(), ls.dropped.Load(), ls.shed.Load())
	}

	// A shed sub no longer receives; the buffered event is drainable.
	publish()
	drained := 0
	for {
		select {
		case <-sub.C():
			drained++
			continue
		default:
		}
		break
	}
	if drained != 1 {
		t.Fatalf("drained %d events after shed, want the 1 buffered before it", drained)
	}
}

// TestLiveBatchTokenReplaySkipsFanout pins at-most-once across client
// retries: a PublishBatch replay whose idempotency tokens are inside
// the dedup window must not re-fan events to live subscribers.
func TestLiveBatchTokenReplaySkipsFanout(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("GFX", Topic); err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeLive("GFX", []string{"#"}, LiveSubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	items := []PublishItem{
		{RoutingKey: "k", Body: []byte("0"), Token: "t0"},
		{RoutingKey: "k", Body: []byte("1"), Token: "t1"},
	}
	for i := 0; i < 2; i++ { // original + retry
		if _, err := b.PublishBatch("GFX", items); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainLive(t, sub); len(got) != 2 {
		t.Fatalf("received %v, want exactly the 2 original events", got)
	}
}

// TestLiveSubscribeValidation pins the argument contract and the
// closed-broker path.
func TestLiveSubscribeValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.SubscribeLive("", []string{"#"}, LiveSubOptions{}); err == nil {
		t.Fatal("empty exchange accepted")
	}
	if _, err := b.SubscribeLive("GFX", nil, LiveSubOptions{}); err == nil {
		t.Fatal("empty pattern set accepted")
	}
	sub, err := b.SubscribeLive("GFX", []string{"#"}, LiveSubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case <-sub.Done():
	case <-time.After(time.Second):
		t.Fatal("broker close did not end the live subscription")
	}
	if _, err := b.SubscribeLive("GFX", []string{"#"}, LiveSubOptions{}); err == nil {
		t.Fatal("subscribe on a closed broker accepted")
	}
	sub.Close() // idempotent after broker close
}

// liveCounts reads the broker's live fan-out counters, the counts the
// server exports as its live_* metric families.
type liveCounts struct {
	delivered, dropped, shed liveCounter
}

// liveCounter reads one of them.
type liveCounter func() uint64

func (f liveCounter) Load() uint64 { return f() }

func countLive(b *Broker) *liveCounts {
	return &liveCounts{
		delivered: func() uint64 { return b.Stats().LiveDelivered },
		dropped:   func() uint64 { return b.Stats().LiveDropped },
		shed:      func() uint64 { return b.Stats().LiveShed },
	}
}
