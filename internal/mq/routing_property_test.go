package mq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Property tests on broker routing invariants.

// TestRoutingDeliversExactlyMatchingQueues: for random topic
// topologies, a published message lands in exactly the queues whose
// binding pattern matches its routing key.
func TestRoutingDeliversExactlyMatchingQueues(t *testing.T) {
	words := []string{"SC", "mob1", "mob2", "obs", "feedback", "FR75013", "FR92120", "*", "#"}
	keyWords := []string{"SC", "mob1", "mob2", "obs", "feedback", "FR75013", "FR92120"}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker()
		defer b.Close()
		if err := b.DeclareExchange("x", Topic); err != nil {
			return false
		}
		// Random bindings.
		type bindingSpec struct {
			queue   string
			pattern string
		}
		var specs []bindingSpec
		nQueues := 1 + rng.Intn(6)
		for q := 0; q < nQueues; q++ {
			name := fmt.Sprintf("q%d", q)
			if err := b.DeclareQueue(name, QueueOptions{}); err != nil {
				return false
			}
			parts := make([]string, 1+rng.Intn(4))
			for i := range parts {
				parts[i] = words[rng.Intn(len(words))]
			}
			pattern := strings.Join(parts, ".")
			if err := b.BindQueue(name, "x", pattern); err != nil {
				return false
			}
			specs = append(specs, bindingSpec{queue: name, pattern: pattern})
		}
		// Random key.
		parts := make([]string, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = keyWords[rng.Intn(len(keyWords))]
		}
		key := strings.Join(parts, ".")

		// Expected destinations from the reference matcher.
		expected := make(map[string]bool)
		for _, s := range specs {
			if topicMatch(s.pattern, key) {
				expected[s.queue] = true
			}
		}
		n, err := b.PublishAt("x", key, nil, []byte("m"), time.Now())
		if err != nil {
			return false
		}
		if n != len(expected) {
			return false
		}
		for _, s := range specs {
			st, err := b.QueueStats(s.queue)
			if err != nil {
				return false
			}
			want := 0
			if expected[s.queue] {
				want = 1
			}
			if st.Ready != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRoutingConservation: every published message is either routed
// (counted once per destination queue) or unroutable — never lost,
// never duplicated within a queue.
func TestRoutingConservation(t *testing.T) {
	f := func(seed int64, nMsgs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker()
		defer b.Close()
		if err := b.DeclareExchange("x", Topic); err != nil {
			return false
		}
		for q := 0; q < 3; q++ {
			name := fmt.Sprintf("q%d", q)
			if err := b.DeclareQueue(name, QueueOptions{}); err != nil {
				return false
			}
			if err := b.BindQueue(name, "x", fmt.Sprintf("k%d.#", q)); err != nil {
				return false
			}
		}
		total := int(nMsgs%50) + 1
		routedSum := 0
		for i := 0; i < total; i++ {
			key := fmt.Sprintf("k%d.m", rng.Intn(5)) // k3/k4 unroutable
			n, err := b.PublishAt("x", key, nil, []byte{byte(i)}, time.Now())
			if err != nil {
				return false
			}
			routedSum += n
		}
		st := b.Stats()
		if published, _ := publishedTotals(st); published != uint64(total) {
			return false
		}
		if st.Routed != uint64(routedSum) {
			return false
		}
		// Ready counts across queues equal the routed sum.
		ready := 0
		for q := 0; q < 3; q++ {
			qs, err := b.QueueStats(fmt.Sprintf("q%d", q))
			if err != nil {
				return false
			}
			ready += qs.Ready
		}
		return ready == routedSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
