package guard

import (
	"sync"
	"time"
)

// SendBudget is the per-socket slow-consumer detector of the live
// subscription layer. A live socket owns a bounded send queue; when
// the queue is full the server drops the event rather than buffering
// unboundedly (the deployment lesson behind PR 4's guards applies to
// push exactly as to pull: memory spent queueing for one stalled
// dashboard is memory taken from ingest). The budget decides when
// dropping turns into disconnecting: a reader whose queue has been
// continuously full for Grace gets shed, because a consumer that
// drains nothing for that long is gone or hopeless, and holding its
// socket only hides the failure from the client — a disconnect makes
// it reconnect and catch up over the cursor API instead.
//
// Usage: the sender calls Sent after every successful (non-dropped)
// enqueue and Full on every failed one; Full reports true once the
// queue has stayed full — no Sent in between — for at least Grace.
type SendBudget struct {
	grace time.Duration
	now   func() time.Time

	mu        sync.Mutex
	fullSince time.Time
}

// NewSendBudget builds a budget. A Grace of 0 (or less) sheds on the
// first full-queue event; now defaults to time.Now.
func NewSendBudget(grace time.Duration, now func() time.Time) *SendBudget {
	if now == nil {
		now = time.Now
	}
	return &SendBudget{grace: grace, now: now}
}

// Sent records a successful enqueue: the queue had room, so the
// consumer is draining and any running full streak resets.
func (b *SendBudget) Sent() {
	b.mu.Lock()
	b.fullSince = time.Time{}
	b.mu.Unlock()
}

// Full records a failed (queue-full) enqueue and reports whether the
// budget is exhausted: the queue has now been continuously full for at
// least Grace.
func (b *SendBudget) Full() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if b.fullSince.IsZero() {
		b.fullSince = now
		return b.grace <= 0
	}
	return now.Sub(b.fullSince) >= b.grace
}
