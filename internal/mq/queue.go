package mq

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrQueueClosed is returned on operations against a deleted queue.
	ErrQueueClosed = errors.New("mq: queue closed")
	// ErrUnknownTag is returned when acknowledging a delivery tag that
	// is not outstanding.
	ErrUnknownTag = errors.New("mq: unknown delivery tag")
)

// QueueOptions configure queue behaviour at declare time.
type QueueOptions struct {
	// MaxLen bounds the number of ready messages; 0 means unbounded.
	// When full, the oldest ready message is dropped (the mobile
	// buffering semantics: fresher observations win).
	MaxLen int
	// HighWatermark pauses publishers when the ready depth reaches it
	// (a wire-level `flow` frame asks them to stop); 0 disables flow
	// control. Backpressure replaces silent unbounded buffering: the
	// deployment lesson is that a consumer outage otherwise turns the
	// broker into an unbounded buffer that falls over later, all at
	// once. Publishers resume once the ready depth drains back to half
	// of it (lowWatermark).
	HighWatermark int
}

// QueueStats is a point-in-time snapshot of queue state.
type QueueStats struct {
	Name      string `json:"name"`
	Ready     int    `json:"ready"`
	Unacked   int    `json:"unacked"`
	Consumers int    `json:"consumers"`
	// Published counts the messages enqueued.
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Acked     uint64 `json:"acked"`
	// Dropped counts discards: MaxLen overflow (also counted by
	// Overflowed) or a nack without requeue.
	Dropped uint64 `json:"dropped"`

	// The counts below stay in process: the wire's queue-stats reply
	// keeps its pinned shape.

	// Nacked counts rejections, requeued or not.
	Nacked     uint64 `json:"-"`
	Overflowed uint64 `json:"-"`
	// FlowPauses and FlowResumes count the crossings of the high and
	// low watermarks.
	FlowPauses  uint64 `json:"-"`
	FlowResumes uint64 `json:"-"`
}

// queue is a broker-internal message queue with competing consumers
// and per-delivery acknowledgements.
//
// Counters and the ready/unacked/consumer cardinalities are atomics
// mirrored alongside the locked structures, so statsFast can snapshot
// the queue without acquiring mu — metric sampling never contends with
// the publish/dispatch hot path.
type queue struct {
	name string
	opts QueueOptions

	mu        sync.Mutex
	ready     msgDeque
	unacked   map[uint64]Message
	consumers []*Consumer
	nextRR    int // round-robin cursor over consumers
	nextTag   uint64
	closed    bool

	// now stamps overflow warnings; overridable in tests.
	now func() time.Time

	// flowFn forwards watermark pause/resume transitions to the owning
	// broker's flow subscribers; nil for standalone queues. Fires under
	// q.mu, so it must not call back into the queue.
	flowFn func(queue string, paused bool)
	// paused tracks the flow-control state under mu.
	paused bool

	// Overflow warn rate limiting: at most one log line per queue per
	// minute, counting the drops since the last line.
	lastOverflowWarn  time.Time
	overflowSinceWarn int

	readyN     atomic.Int64
	unackedN   atomic.Int64
	consumersN atomic.Int64

	published   atomic.Uint64
	delivered   atomic.Uint64
	acked       atomic.Uint64
	nacked      atomic.Uint64
	dropped     atomic.Uint64
	overflowed  atomic.Uint64
	flowPauses  atomic.Uint64
	flowResumes atomic.Uint64
}

func newQueue(name string, opts QueueOptions, flowFn func(string, bool)) *queue {
	return &queue{
		name:    name,
		opts:    opts,
		unacked: make(map[uint64]Message),
		now:     time.Now,
		flowFn:  flowFn,
	}
}

// publish enqueues a message and dispatches it to a consumer with
// spare prefetch capacity if one exists. The message is copied into
// the queue; the caller's value is not retained.
func (q *queue) publish(m *Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	q.enqueueLocked(m)
	q.dispatchLocked()
	return nil
}

// publishBatch enqueues a run of messages under one lock acquisition
// and dispatches once at the end. Per-message semantics are
// preserved: counters and MaxLen overflow drops count for each
// message exactly as a sequence of publish calls would, and FIFO
// order within the batch is kept.
func (q *queue) publishBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	for i := range msgs {
		q.enqueueLocked(&msgs[i])
	}
	q.dispatchLocked()
	return nil
}

// enqueueLocked appends one message to the ready list, enforcing
// MaxLen by dropping the oldest ready messages. Caller holds q.mu.
func (q *queue) enqueueLocked(m *Message) {
	q.published.Add(1)
	q.ready.pushBack(m)
	q.readyN.Add(1)
	if q.opts.MaxLen > 0 {
		overflowed := 0
		for q.ready.len() > q.opts.MaxLen {
			q.ready.dropFront()
			q.readyN.Add(-1)
			q.dropped.Add(1)
			q.overflowed.Add(1)
			overflowed++
		}
		if overflowed > 0 {
			q.warnOverflowLocked(overflowed)
		}
	}
}

// warnOverflowLocked logs MaxLen overflow drops at most once per queue
// per minute, accumulating the drop count in between so no loss goes
// unreported. Caller holds q.mu.
func (q *queue) warnOverflowLocked(n int) {
	q.overflowSinceWarn += n
	now := q.now()
	if !q.lastOverflowWarn.IsZero() && now.Sub(q.lastOverflowWarn) < time.Minute {
		return
	}
	log.Printf("mq: queue %q dropped %d message(s) to MaxLen=%d overflow (oldest first)",
		q.name, q.overflowSinceWarn, q.opts.MaxLen)
	q.lastOverflowWarn = now
	q.overflowSinceWarn = 0
}

// lowWatermark is the ready depth at which paused publishers resume:
// half the high watermark, so always below it.
func (q *queue) lowWatermark() int { return q.opts.HighWatermark / 2 }

// updateFlowLocked detects watermark crossings on the ready depth and
// counts pause/resume transitions and publishes them to the broker's
// flow subscribers. Caller holds q.mu.
func (q *queue) updateFlowLocked() {
	hw := q.opts.HighWatermark
	if hw <= 0 {
		return
	}
	n := q.ready.len()
	switch {
	case !q.paused && n >= hw:
		q.paused = true
		q.flowPauses.Add(1)
		if q.flowFn != nil {
			q.flowFn(q.name, true)
		}
	case q.paused && n <= q.lowWatermark():
		q.paused = false
		q.flowResumes.Add(1)
		if q.flowFn != nil {
			q.flowFn(q.name, false)
		}
	}
}

// dispatchLocked hands ready messages to consumers round-robin while
// any consumer has prefetch headroom. Caller holds q.mu. Every exit
// path re-evaluates the flow watermarks: dispatch is the common tail
// of publish, ack, nack-requeue and consumer attach, which are exactly
// the operations that move the ready depth.
func (q *queue) dispatchLocked() {
	defer q.updateFlowLocked()
	if len(q.consumers) == 0 {
		return
	}
	for q.ready.len() > 0 {
		front, _ := q.ready.front()
		q.nextTag++
		tag := q.nextTag
		// Offer to consumers round-robin; offer itself checks prefetch
		// headroom, so capacity check and delivery share one consumer
		// lock acquisition.
		n := len(q.consumers)
		delivered := false
		for i := 0; i < n; i++ {
			c := q.consumers[(q.nextRR+i)%n]
			if c.offer(Delivery{Message: *front, Tag: tag, Queue: q.name}) {
				q.nextRR = (q.nextRR + i + 1) % n
				delivered = true
				break
			}
		}
		if !delivered {
			// Every consumer saturated; the message stays ready and
			// will be dispatched on ack. The minted tag is never used.
			return
		}
		q.unacked[tag] = *front
		q.ready.dropFront()
		q.readyN.Add(-1)
		q.unackedN.Add(1)
		q.delivered.Add(1)
	}
}

// ack discards an unacked delivery.
func (q *queue) ack(tag uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.unacked[tag]; !ok {
		return fmt.Errorf("queue %q: ack %d: %w", q.name, tag, ErrUnknownTag)
	}
	delete(q.unacked, tag)
	q.unackedN.Add(-1)
	q.acked.Add(1)
	q.dispatchLocked()
	return nil
}

// nack returns an unacked delivery; requeue=true pushes it back to the
// front of the ready list marked redelivered, requeue=false drops it.
func (q *queue) nack(tag uint64, requeue bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	m, ok := q.unacked[tag]
	if !ok {
		return fmt.Errorf("queue %q: nack %d: %w", q.name, tag, ErrUnknownTag)
	}
	delete(q.unacked, tag)
	q.unackedN.Add(-1)
	q.nacked.Add(1)
	if requeue {
		m.Redelivered = true
		q.ready.pushFront(&m)
		q.readyN.Add(1)
		q.dispatchLocked()
	} else {
		q.dropped.Add(1)
	}
	return nil
}

// addConsumer registers a consumer and immediately dispatches backlog.
func (q *queue) addConsumer(c *Consumer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	q.consumers = append(q.consumers, c)
	q.consumersN.Add(1)
	q.dispatchLocked()
	return nil
}

// removeConsumer unregisters a consumer and requeues its undelivered
// channel backlog is not tracked here; unacked messages stay unacked
// until the owning session nacks them.
func (q *queue) removeConsumer(c *Consumer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, x := range q.consumers {
		if x == c {
			q.consumers = append(q.consumers[:i], q.consumers[i+1:]...)
			q.consumersN.Add(-1)
			break
		}
	}
}

// close marks the queue deleted and closes every consumer channel.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	if q.paused {
		// A deleted queue must not leave publishers paused forever.
		q.paused = false
		q.flowResumes.Add(1)
		if q.flowFn != nil {
			q.flowFn(q.name, false)
		}
	}
	for _, c := range q.consumers {
		c.closeChan()
	}
	q.consumers = nil
	q.consumersN.Store(0)
	q.ready.reset()
	q.readyN.Store(0)
	q.unacked = make(map[uint64]Message)
	q.unackedN.Store(0)
}

// stats snapshots queue counters under the queue lock.
func (q *queue) stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.updateFlowLocked()
	st := q.statsFast()
	st.Ready, st.Unacked, st.Consumers = q.ready.len(), len(q.unacked), len(q.consumers)
	return st
}

// statsFast snapshots queue counters from atomics only, with no mutex.
// Fields may be mutually torn by a few in-flight messages, which is
// fine for monitoring.
func (q *queue) statsFast() QueueStats {
	return QueueStats{
		Name:        q.name,
		Ready:       int(q.readyN.Load()),
		Unacked:     int(q.unackedN.Load()),
		Consumers:   int(q.consumersN.Load()),
		Published:   q.published.Load(),
		Delivered:   q.delivered.Load(),
		Acked:       q.acked.Load(),
		Nacked:      q.nacked.Load(),
		Dropped:     q.dropped.Load(),
		Overflowed:  q.overflowed.Load(),
		FlowPauses:  q.flowPauses.Load(),
		FlowResumes: q.flowResumes.Load(),
	}
}

// Consumer receives deliveries from a queue. Obtain one via
// Broker.Consume; receive from C; call Cancel when done.
type Consumer struct {
	queue    *queue
	ch       chan Delivery
	prefetch int

	mu          sync.Mutex
	inFlight    int
	closed      bool
	outstanding map[uint64]struct{}
}

// C returns the delivery channel. It is closed when the consumer is
// cancelled or the queue deleted.
func (c *Consumer) C() <-chan Delivery { return c.ch }

// offer attempts a non-blocking delivery, refusing when the consumer
// is closed, has no prefetch headroom, or its channel is full.
func (c *Consumer) offer(d Delivery) bool {
	c.mu.Lock()
	if c.closed || (c.prefetch > 0 && c.inFlight >= c.prefetch) {
		c.mu.Unlock()
		return false
	}
	select {
	case c.ch <- d:
		c.inFlight++
		c.outstanding[d.Tag] = struct{}{}
		c.mu.Unlock()
		return true
	default:
		c.mu.Unlock()
		return false
	}
}

// Ack acknowledges a delivery received by this consumer.
func (c *Consumer) Ack(tag uint64) error {
	c.mu.Lock()
	if c.inFlight > 0 {
		c.inFlight--
	}
	delete(c.outstanding, tag)
	c.mu.Unlock()
	return c.queue.ack(tag)
}

// Nack rejects a delivery; requeue controls whether it returns to the
// ready list.
func (c *Consumer) Nack(tag uint64, requeue bool) error {
	c.mu.Lock()
	if c.inFlight > 0 {
		c.inFlight--
	}
	delete(c.outstanding, tag)
	c.mu.Unlock()
	return c.queue.nack(tag, requeue)
}

// Cancel unsubscribes the consumer and closes its channel. Unacked
// deliveries already received must still be acked or nacked.
func (c *Consumer) Cancel() {
	c.queue.removeConsumer(c)
	c.closeChan()
}

// CancelAndRequeue cancels the subscription and returns every
// delivery the consumer still held unacknowledged (including ones
// sitting unread in its channel) to the queue — the teardown path for
// a mobile session that disconnected mid-stream.
func (c *Consumer) CancelAndRequeue() {
	c.Cancel()
	c.mu.Lock()
	tags := make([]uint64, 0, len(c.outstanding))
	for tag := range c.outstanding {
		tags = append(tags, tag)
	}
	c.outstanding = make(map[uint64]struct{})
	c.inFlight = 0
	c.mu.Unlock()
	c.queue.requeueAll(tags)
}

// requeueAll returns a set of unacked deliveries to the front of the
// ready list in one critical section: newest tag pushed first, so the
// restored sequence is the original publish order ahead of the queued
// backlog, and a single dispatch at the end keeps an already-attached
// consumer from interleaving with the restore — a reconnecting mobile
// session drains its buffer in order. Tags already settled through
// another path are skipped.
func (q *queue) requeueAll(tags []uint64) {
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, tag := range tags {
		m, ok := q.unacked[tag]
		if !ok {
			continue
		}
		delete(q.unacked, tag)
		q.unackedN.Add(-1)
		q.nacked.Add(1)
		m.Redelivered = true
		q.ready.pushFront(&m)
		q.readyN.Add(1)
	}
	q.dispatchLocked()
}

func (c *Consumer) closeChan() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
}
