package mq

import (
	"fmt"
	"testing"
	"time"
)

// TestPublishDedupWindow: the broker remembers exactly the last
// dedupWindow tokens, evicting the oldest first, and a batch replay
// skips only the items whose tokens it still holds.
func TestPublishDedupWindow(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_600_000_000, 0)
	tok := func(i int) string { return fmt.Sprintf("tok-%d", i) }
	publish := func(token string) {
		t.Helper()
		if _, err := b.PublishAtToken("x", "k", nil, nil, at, token); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(label string, published, hits uint64) {
		t.Helper()
		st := b.Stats()
		if got, _ := publishedTotals(st); got != published || st.PublishDedupHits != hits {
			t.Fatalf("%s: %d published, %d dedup hits; want %d, %d",
				label, got, st.PublishDedupHits, published, hits)
		}
	}

	// tok-0 and then dedupWindow newer tokens: tok-0 is the one evicted.
	for i := 0; i <= dedupWindow; i++ {
		publish(tok(i))
	}
	expect("window filled", dedupWindow+1, 0)
	publish(tok(1))
	publish(tok(dedupWindow))
	expect("oldest and newest inside the window", dedupWindow+1, 2)
	publish(tok(0))
	expect("forgotten token", dedupWindow+2, 2)

	// tok-0 came back and pushed tok-1 out; the newest is still held.
	items := []PublishItem{
		{RoutingKey: "k", Token: tok(dedupWindow)},
		{RoutingKey: "k", Token: "fresh-a"},
		{RoutingKey: "k", Token: tok(1)},
		{RoutingKey: "k"},
	}
	if _, err := b.PublishBatch("x", items); err != nil {
		t.Fatal(err)
	}
	expect("batch", dedupWindow+5, 3)
	if _, err := b.PublishBatch("x", items); err != nil {
		t.Fatal(err)
	}
	// The replay skips the three tokened items; the untokened one has
	// nothing to be recognized by.
	expect("batch replay", dedupWindow+6, 6)
}
