package mq

import (
	"sort"
	"sync"
)

// Per-queue flow control: when a queue's ready depth reaches its
// HighWatermark the broker asks publishers to pause, and resumes them
// once the depth drains to half of it. Transitions surface in
// three places: the queue's FlowPauses/FlowResumes counts, the
// FlowSub subscription the wire server broadcasts to connections as
// `flow` frames, and Broker.PausedQueues for snapshots (a freshly
// accepted connection is told about queues that paused before it
// arrived).

// FlowEvent is one pause/resume transition of a queue.
type FlowEvent struct {
	Queue  string
	Paused bool
}

// FlowSub is a coalescing subscription to flow transitions. Readers
// wait on C and call Drain; if a queue flaps faster than the reader
// drains, intermediate states collapse to the latest one — publishers
// only care about the current state, not the history.
type FlowSub struct {
	mu      sync.Mutex
	pending map[string]bool // queue -> latest paused state
	ch      chan struct{}   // cap 1: "something pending" signal
	closed  bool
}

// C signals that Drain has events. The channel never closes; select on
// it together with your own stop channel.
func (fs *FlowSub) C() <-chan struct{} { return fs.ch }

// Drain returns the coalesced transitions since the last call, sorted
// by queue name for determinism.
func (fs *FlowSub) Drain() []FlowEvent {
	fs.mu.Lock()
	events := make([]FlowEvent, 0, len(fs.pending))
	for q, paused := range fs.pending {
		events = append(events, FlowEvent{Queue: q, Paused: paused})
	}
	clear(fs.pending)
	fs.mu.Unlock()
	sort.Slice(events, func(i, j int) bool { return events[i].Queue < events[j].Queue })
	return events
}

// notify records a transition and signals the reader. Called under
// queue locks, so it must never block: the signal send is lossy-safe
// (capacity 1, drop when already signalled).
func (fs *FlowSub) notify(queue string, paused bool) {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return
	}
	fs.pending[queue] = paused
	fs.mu.Unlock()
	select {
	case fs.ch <- struct{}{}:
	default:
	}
}

// Close detaches the subscription from the broker.
func (fs *FlowSub) close() {
	fs.mu.Lock()
	fs.closed = true
	fs.pending = make(map[string]bool)
	fs.mu.Unlock()
}

// SubscribeFlow registers a flow-transition subscriber. Call
// UnsubscribeFlow when done.
func (b *Broker) SubscribeFlow() *FlowSub {
	fs := &FlowSub{pending: make(map[string]bool), ch: make(chan struct{}, 1)}
	b.flowMu.Lock()
	if b.flowSubs == nil {
		b.flowSubs = make(map[*FlowSub]struct{})
	}
	b.flowSubs[fs] = struct{}{}
	b.flowMu.Unlock()
	return fs
}

// UnsubscribeFlow detaches fs.
func (b *Broker) UnsubscribeFlow(fs *FlowSub) {
	b.flowMu.Lock()
	delete(b.flowSubs, fs)
	b.flowMu.Unlock()
	fs.close()
}

// notifyFlow fans a queue transition out to subscribers and maintains
// the paused-queue snapshot. Runs under the queue's lock (via
// queue.flowFn), so everything here is non-blocking.
func (b *Broker) notifyFlow(queue string, paused bool) {
	b.flowMu.Lock()
	if paused {
		if b.pausedQueues == nil {
			b.pausedQueues = make(map[string]struct{})
		}
		b.pausedQueues[queue] = struct{}{}
	} else {
		delete(b.pausedQueues, queue)
	}
	subs := make([]*FlowSub, 0, len(b.flowSubs))
	for fs := range b.flowSubs {
		subs = append(subs, fs)
	}
	b.flowMu.Unlock()
	for _, fs := range subs {
		fs.notify(queue, paused)
	}
}

// PausedQueues returns the names of queues currently holding publishers
// paused, sorted. Wire servers send this snapshot to new connections.
func (b *Broker) PausedQueues() []string {
	b.flowMu.Lock()
	names := make([]string, 0, len(b.pausedQueues))
	for q := range b.pausedQueues {
		names = append(names, q)
	}
	b.flowMu.Unlock()
	sort.Strings(names)
	return names
}
