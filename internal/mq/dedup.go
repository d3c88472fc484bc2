package mq

import "sync"

// Publish idempotency dedup: a resilient client that loses the
// response to a publish cannot know whether the broker enqueued it,
// so it re-sends the frame with the same token. The broker remembers
// the last dedupWindow tokens it has settled and answers a replay
// with the original delivery count instead of enqueueing twice —
// at-most-once enqueue per token, which together with the client's
// retry loop yields exactly-once.

// dedupWindow bounds remembered tokens. At the deployment's peak rate
// (~150k messages/day, §4.1) this window covers several minutes of
// traffic — far longer than any retry burst.
const dedupWindow = 1 << 14

// publishDedup is a FIFO token memo of at most dedupWindow tokens. It
// grows with the tokens it holds, so a broker whose publishers send
// none pays for none.
type publishDedup struct {
	mu   sync.Mutex
	seen map[string]int // token -> delivery count of the original publish
	// ring is the eviction order. It grows by append up to dedupWindow;
	// from then on next is the oldest token, the one the next record
	// replaces.
	ring []string
	next int
}

func newPublishDedup() *publishDedup {
	return &publishDedup{seen: make(map[string]int)}
}

// lookup returns the memoized delivery count for token.
func (d *publishDedup) lookup(token string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.seen[token]
	return n, ok
}

// record memoizes a settled publish, evicting the oldest token once
// the window is full.
func (d *publishDedup) record(token string, delivered int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen[token]; ok {
		d.seen[token] = delivered
		return
	}
	if len(d.ring) < dedupWindow {
		d.ring = append(d.ring, token)
	} else {
		delete(d.seen, d.ring[d.next])
		d.ring[d.next] = token
		d.next = (d.next + 1) % dedupWindow
	}
	d.seen[token] = delivered
}
