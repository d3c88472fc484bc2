package mq

// Instrumentation hooks. The broker stays free of any metrics
// dependency: observers install a Hooks value whose function fields
// receive raw events (publish, delivery, ack, drop, wire bytes) and
// aggregate them however they like — the goflow layer adapts these
// onto obs counters.
//
// Hook functions MUST be fast and non-blocking and MUST NOT call back
// into the broker: several fire while queue or broker locks are held.
// Unset fields cost one nil check on the hot path.

// Hooks receives broker events. The zero value is inert.
type Hooks struct {
	// Published fires once per Publish/PublishAt with the number of
	// queues the message reached (0 = unroutable).
	Published func(exchange string, delivered int)
	// Enqueued fires when a message lands on a queue's ready list.
	Enqueued func(queue string)
	// Delivered fires when a message is handed to a consumer or
	// fetched via Get.
	Delivered func(queue string)
	// Acked fires on every acknowledgement.
	Acked func(queue string)
	// Nacked fires on every rejection; requeue tells whether the
	// message went back to the ready list.
	Nacked func(queue string, requeue bool)
	// Dropped fires when a message is discarded: MaxLen overflow or a
	// nack without requeue.
	Dropped func(queue string)
	// Overflowed fires (in addition to Dropped) when the discard was a
	// MaxLen overflow specifically, so operators can alert on capacity
	// loss separately from deliberate nack-drops.
	Overflowed func(queue string)
	// FlowPaused / FlowResumed fire when a queue's ready depth crosses
	// its high / low watermark and publishers are paused / resumed via
	// wire-level flow frames. Fire under the queue lock.
	FlowPaused  func(queue string)
	FlowResumed func(queue string)
	// ConnOpened / ConnClosed track TCP connections on the wire server.
	ConnOpened func()
	ConnClosed func()
	// BytesRead / BytesWritten count wire-protocol bytes including the
	// 4-byte length prefix.
	BytesRead    func(n int)
	BytesWritten func(n int)
	// RouteCacheHit / RouteCacheMiss fire once per routed publish on
	// the hot path; keep them to an atomic increment.
	RouteCacheHit  func()
	RouteCacheMiss func()
	// RouteCacheInvalidated fires when a topology change (declare,
	// bind, unbind, delete) discards the memoized routes. Fires under
	// the broker write lock.
	RouteCacheInvalidated func()
}

// Nil-tolerant dispatch helpers so call sites stay one-liners.

func (h *Hooks) published(exchange string, delivered int) {
	if h != nil && h.Published != nil {
		h.Published(exchange, delivered)
	}
}

func (h *Hooks) enqueued(queue string) {
	if h != nil && h.Enqueued != nil {
		h.Enqueued(queue)
	}
}

func (h *Hooks) delivered(queue string) {
	if h != nil && h.Delivered != nil {
		h.Delivered(queue)
	}
}

func (h *Hooks) acked(queue string) {
	if h != nil && h.Acked != nil {
		h.Acked(queue)
	}
}

func (h *Hooks) nacked(queue string, requeue bool) {
	if h != nil && h.Nacked != nil {
		h.Nacked(queue, requeue)
	}
}

func (h *Hooks) dropped(queue string) {
	if h != nil && h.Dropped != nil {
		h.Dropped(queue)
	}
}

func (h *Hooks) overflowed(queue string) {
	if h != nil && h.Overflowed != nil {
		h.Overflowed(queue)
	}
}

func (h *Hooks) flowPaused(queue string) {
	if h != nil && h.FlowPaused != nil {
		h.FlowPaused(queue)
	}
}

func (h *Hooks) flowResumed(queue string) {
	if h != nil && h.FlowResumed != nil {
		h.FlowResumed(queue)
	}
}

func (h *Hooks) connOpened() {
	if h != nil && h.ConnOpened != nil {
		h.ConnOpened()
	}
}

func (h *Hooks) connClosed() {
	if h != nil && h.ConnClosed != nil {
		h.ConnClosed()
	}
}

func (h *Hooks) bytesRead(n int) {
	if h != nil && h.BytesRead != nil {
		h.BytesRead(n)
	}
}

func (h *Hooks) bytesWritten(n int) {
	if h != nil && h.BytesWritten != nil {
		h.BytesWritten(n)
	}
}

func (h *Hooks) routeCacheHit() {
	if h != nil && h.RouteCacheHit != nil {
		h.RouteCacheHit()
	}
}

func (h *Hooks) routeCacheMiss() {
	if h != nil && h.RouteCacheMiss != nil {
		h.RouteCacheMiss()
	}
}

func (h *Hooks) routeCacheInvalidated() {
	if h != nil && h.RouteCacheInvalidated != nil {
		h.RouteCacheInvalidated()
	}
}

// SetHooks installs the broker's event hooks. Install before traffic
// starts; installing later is safe (the pointer swap is atomic) but
// events in flight may be split across old and new hooks.
func (b *Broker) SetHooks(h Hooks) {
	b.hooks.Store(&h)
}

// currentHooks returns the installed hooks (possibly nil).
func (b *Broker) currentHooks() *Hooks { return b.hooks.Load() }
