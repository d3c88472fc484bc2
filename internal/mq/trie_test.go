package mq

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTrie compiles patterns into a trie; dest i carries the queue
// name "qi" so matches can be compared against TopicMatch.
func buildTrie(patterns []string) *trieNode {
	root := &trieNode{}
	for i, p := range patterns {
		root.insert(splitWords(p), dest{toQueue: fmt.Sprintf("q%d", i)})
	}
	return root
}

// trieMatches returns the deduplicated set of pattern indexes the trie
// emits for key.
func trieMatches(root *trieNode, key string) map[string]bool {
	got := map[string]bool{}
	root.match(splitWords(key), func(d dest) { got[d.toQueue] = true })
	return got
}

// TestTrieAgreesWithTopicMatch is the property test pinning the
// compiled trie to the reference matcher: for random pattern sets and
// keys — including empty words from doubled, leading and trailing
// dots — the trie must emit exactly the patterns TopicMatch accepts.
func TestTrieAgreesWithTopicMatch(t *testing.T) {
	patWords := []string{"a", "b", "c", "obs", "*", "#", ""}
	keyWords := []string{"a", "b", "c", "obs", ""}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 3000; iter++ {
		patterns := make([]string, 1+rng.Intn(8))
		for i := range patterns {
			parts := make([]string, rng.Intn(6))
			for j := range parts {
				parts[j] = patWords[rng.Intn(len(patWords))]
			}
			patterns[i] = strings.Join(parts, ".")
		}
		parts := make([]string, rng.Intn(6))
		for j := range parts {
			parts[j] = keyWords[rng.Intn(len(keyWords))]
		}
		key := strings.Join(parts, ".")

		root := buildTrie(patterns)
		got := trieMatches(root, key)
		for i, p := range patterns {
			name := fmt.Sprintf("q%d", i)
			if want := topicMatch(p, key); want != got[name] {
				t.Fatalf("pattern %q key %q: trie=%v TopicMatch=%v (patterns=%v)",
					p, key, got[name], want, patterns)
			}
		}
	}
}

// TestTrieEdgeCases pins the wildcard corner cases explicitly so a
// regression names the exact rule it broke.
func TestTrieEdgeCases(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"a.#.b", "a.b", true},     // '#' absorbs zero words
		{"a.#.b", "a.x.b", true},   // one word
		{"a.#.b", "a.x.y.b", true}, // several words
		{"a.#.b", "a.b.x", false},  // must still end in b
		{"a.#.b", "a", false},      //
		{"#", "", true},            // '#' alone matches the empty key
		{"#.#", "a", true},         // duplicate emission path
		{"*", "", false},           // '*' needs exactly one word
		{"*", "a", true},           //
		{"", "", true},             // empty pattern, empty key
		{"", "a", false},           //
		{"a..b", "a..b", true},     // empty segment is a literal word
		{"a..b", "a.b", false},     //
		{"a.*.b", "a..b", true},    // '*' matches an empty word
		{"a.#", "a", true},         // trailing hash, zero words
		{"a.#", "a.b.c", true},     //
		{"#.a", "a", true},         // leading hash, zero words
		{"a.", "a.", true},         // trailing dot = trailing empty word
		{"a.", "a", false},         //
	}
	for _, c := range cases {
		root := buildTrie([]string{c.pattern})
		if got := trieMatches(root, c.key)["q0"]; got != c.want {
			t.Errorf("pattern %q key %q: trie=%v want=%v", c.pattern, c.key, got, c.want)
		}
		if got := topicMatch(c.pattern, c.key); got != c.want {
			t.Errorf("pattern %q key %q: TopicMatch=%v want=%v (reference disagrees with table)",
				c.pattern, c.key, got, c.want)
		}
	}
}

// TestRouteCacheCounters verifies the hit/miss/invalidation
// accounting: first publish misses, repeats hit, and any topology
// change flushes the cache so the next publish misses again.
func TestRouteCacheCounters(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "a.*"); err != nil {
		t.Fatal(err)
	}
	invsAfterSetup := b.Stats().RouteCacheInvalidations

	for i := 0; i < 5; i++ {
		if _, err := b.PublishAt("x", "a.b", nil, []byte("m"), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.RouteCacheMisses != 1 || st.RouteCacheHits != 4 {
		t.Fatalf("stats after 5 publishes: hits=%d misses=%d, want 4/1", st.RouteCacheHits, st.RouteCacheMisses)
	}

	// Topology change invalidates; next publish misses again.
	if err := b.DeclareQueue("q2", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if invs := b.Stats().RouteCacheInvalidations; invs != invsAfterSetup+1 {
		t.Fatalf("invalidations = %d, want %d", invs, invsAfterSetup+1)
	}
	if _, err := b.PublishAt("x", "a.b", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.RouteCacheMisses != 2 {
		t.Fatalf("misses after invalidation = %d, want 2", st.RouteCacheMisses)
	}
}

// TestBindUnbindInvalidatesRoutes checks the correctness contract of
// the memoized routes: a publish issued after BindQueue/UnbindQueue
// returns must see the new topology — no stale deliveries, no missed
// queues.
func TestBindUnbindInvalidatesRoutes(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"q0", "q1"} {
		if err := b.DeclareQueue(q, QueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BindQueue("q0", "x", "k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.BindQueue("q1", "x", "k"); err != nil {
			t.Fatal(err)
		}
		if n, _ := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); n != 2 {
			t.Fatalf("iter %d: delivered %d after bind, want 2", i, n)
		}
		if err := b.UnbindQueue("q1", "x", "k"); err != nil {
			t.Fatal(err)
		}
		if n, _ := b.PublishAt("x", "k", nil, []byte("m"), time.Now()); n != 1 {
			t.Fatalf("iter %d: delivered %d after unbind, want 1 (stale route)", i, n)
		}
	}
}

// TestConcurrentBindUnbindPublish races topology changes against
// publishes. Every publish must reach q0 (always bound) and never a
// third queue; run under -race this also checks the cache swap
// synchronization.
func TestConcurrentBindUnbindPublish(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"q0", "q1"} {
		if err := b.DeclareQueue(q, QueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BindQueue("q0", "x", "a.#"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.BindQueue("q1", "x", "a.*"); err != nil {
				return
			}
			if err := b.UnbindQueue("q1", "x", "a.*"); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		n, err := b.PublishAt("x", "a.b", nil, []byte("m"), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > 2 {
			t.Fatalf("publish %d delivered to %d queues, want 1 or 2", i, n)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent check: with the binder stopped in the unbound state,
	// publishes must settle on exactly q0.
	if n, _ := b.PublishAt("x", "a.b", nil, []byte("m"), time.Now()); n != 1 {
		t.Fatalf("post-race publish delivered %d, want 1", n)
	}
}

// TestPublishCacheHitZeroAllocs is the regression guard for the
// zero-allocation hot path: a cached single-queue publish (bounded
// queue, nil headers, explicit timestamp) must not allocate.
func TestPublishCacheHitZeroAllocs(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{MaxLen: 64}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "a.*.c"); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"spl":61.5}`)
	at := time.Now()
	// Warm the route cache and the deque block pool.
	for i := 0; i < dequeBlockLen*2; i++ {
		if _, err := b.PublishAt("x", "a.b.c", nil, body, at); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := b.PublishAt("x", "a.b.c", nil, body, at); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached publish allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPublishBatchSemantics checks that a batch behaves exactly like
// the equivalent sequence of publishes: per-message routing, delivery
// totals, FIFO order and MaxLen drops.
func TestPublishBatchSemantics(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("qa", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("qall", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("qa", "x", "a.*"); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("qall", "x", "#"); err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	items := []PublishItem{
		{RoutingKey: "a.1", Body: []byte("m1"), At: at},
		{RoutingKey: "b.2", Body: []byte("m2"), At: at},
		{RoutingKey: "a.3", Body: []byte("m3"), At: at},
	}
	n, err := b.PublishBatch("x", items)
	if err != nil {
		t.Fatal(err)
	}
	// m1 and m3 reach both queues; m2 only qall.
	if n != 5 {
		t.Fatalf("batch delivered %d, want 5", n)
	}
	for _, want := range []struct {
		queue  string
		bodies []string
	}{
		{"qa", []string{"m1", "m3"}},
		{"qall", []string{"m1", "m2", "m3"}},
	} {
		for _, body := range want.bodies {
			d, found, err := getOne(b, want.queue)
			if err != nil || !found {
				t.Fatalf("get %s: found=%v err=%v", want.queue, found, err)
			}
			if string(d.Body) != body {
				t.Fatalf("queue %s: got %q, want %q (FIFO order)", want.queue, d.Body, body)
			}
			if err := ackGot(b, want.queue, d.Tag); err != nil {
				t.Fatal(err)
			}
		}
	}

	// MaxLen drops apply per message inside a batch.
	if err := b.DeclareQueue("bounded", QueueOptions{MaxLen: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("bounded", "x", "z"); err != nil {
		t.Fatal(err)
	}
	big := make([]PublishItem, 5)
	for i := range big {
		big[i] = PublishItem{RoutingKey: "z", Body: []byte(fmt.Sprintf("b%d", i)), At: at}
	}
	if _, err := b.PublishBatch("x", big); err != nil {
		t.Fatal(err)
	}
	st, err := b.QueueStats("bounded")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 2 || st.Dropped != 3 {
		t.Fatalf("bounded queue ready=%d dropped=%d, want 2/3", st.Ready, st.Dropped)
	}
	// The survivors are the newest two (oldest dropped first).
	d, _, err := getOne(b, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Body) != "b3" {
		t.Fatalf("bounded front = %q, want b3", d.Body)
	}
}

// TestPublishBatchUnroutable counts unroutable items individually.
func TestPublishBatchUnroutable(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.DeclareExchange("x", Topic); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", "a"); err != nil {
		t.Fatal(err)
	}
	n, err := b.PublishBatch("x", []PublishItem{
		{RoutingKey: "a", Body: []byte("hit")},
		{RoutingKey: "nope", Body: []byte("miss")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if published, unroutable := publishedTotals(b.Stats()); published != 2 || unroutable != 1 {
		t.Fatalf("published=%d unroutable=%d, want 2/1", published, unroutable)
	}
}
