package mq

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Live subscriptions: the push half of the live layer. A LiveSub is a
// bounded in-process mailbox attached directly to the broker's publish
// path — no queue, no consumer, no ack. Patterns are the same
// dot-separated topic patterns bindings use ("soundcity.*.obs.Z12",
// "#"), compiled into a per-exchange trie that the publish hot path
// consults after queue routing, so fan-out to ten thousand sockets
// costs one trie walk per traversed exchange rather than a scan of
// the subscriber list.
//
// Delivery is deliberately at-most-once: a full mailbox drops the
// event (counted) instead of blocking the publisher, and a mailbox
// that stays full past its send budget gets the whole subscription
// shed. Clients recover both cases the same way — re-read the cursor
// API for what they missed — which is what makes the stream plus
// catch-up exactly-once end to end (see goflow's live layer and
// DESIGN.md §12).

// ErrLiveClosed reports an operation on a closed live subscription or
// a subscribe on a closed broker.
var ErrLiveClosed = errors.New("mq: live subscription closed")

// SendBudget decides when a persistently-full live mailbox turns from
// dropping events into shedding the subscriber. guard.SendBudget
// implements it; the interface lives here so mq stays free of a guard
// dependency.
type SendBudget interface {
	// Sent records a successful enqueue (the consumer is draining).
	Sent()
	// Full records a failed enqueue and reports whether the
	// subscription should now be shed.
	Full() bool
}

// LiveSubOptions parameterize SubscribeLive.
type LiveSubOptions struct {
	// Buffer is the mailbox capacity (default 256).
	Buffer int
	// Budget is the slow-consumer policy; nil never sheds (events are
	// only ever dropped).
	Budget SendBudget
}

// LiveSub is one live subscriber: a bounded mailbox fed by the
// publish path. Receive from C(); Done() closes when the subscription
// ends (Close, shed, or broker close). C() is never closed — after
// Done, drain C() for events already mailed and then stop.
type LiveSub struct {
	b *Broker

	ch   chan Message
	done chan struct{}

	budget SendBudget

	closed   atomic.Bool
	shedFlag atomic.Bool

	// nodes are the trie nodes holding this sub, kept for O(patterns)
	// removal. Guarded by b.liveMu.
	nodes []*liveNode
}

// C returns the event mailbox.
func (s *LiveSub) C() <-chan Message { return s.ch }

// Done closes when the subscription is over.
func (s *LiveSub) Done() <-chan struct{} { return s.done }

// Shed reports whether the broker disconnected this subscriber for
// exceeding its send budget.
func (s *LiveSub) Shed() bool { return s.shedFlag.Load() }

// Close ends the subscription: it is removed from the fan-out index
// and Done() closes. Idempotent; safe from any goroutine.
func (s *LiveSub) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.b.removeLiveSub(s)
	close(s.done)
}

// liveNode is one segment position in the live-subscription trie —
// the same shape as the binding trie (trie.go) with subscribers at
// the nodes instead of binding destinations.
type liveNode struct {
	children map[string]*liveNode
	star     *liveNode
	hash     *liveNode
	subs     []*LiveSub
}

func (n *liveNode) insert(patWords []string, s *LiveSub) *liveNode {
	cur := n
	for _, w := range patWords {
		switch w {
		case "*":
			if cur.star == nil {
				cur.star = &liveNode{}
			}
			cur = cur.star
		case "#":
			if cur.hash == nil {
				cur.hash = &liveNode{}
			}
			cur = cur.hash
		default:
			if cur.children == nil {
				cur.children = make(map[string]*liveNode)
			}
			next, ok := cur.children[w]
			if !ok {
				next = &liveNode{}
				cur.children[w] = next
			}
			cur = next
		}
	}
	cur.subs = append(cur.subs, s)
	return cur
}

func (n *liveNode) remove(s *LiveSub) {
	for i, sub := range n.subs {
		if sub == s {
			last := len(n.subs) - 1
			n.subs[i] = n.subs[last]
			n.subs[last] = nil
			n.subs = n.subs[:last]
			return
		}
	}
}

// match mirrors trieNode.match: a sub reachable through several
// wildcard paths is emitted more than once; the fan-out deduplicates.
func (n *liveNode) match(key []string, emit func(*LiveSub)) {
	if len(key) == 0 {
		for _, s := range n.subs {
			emit(s)
		}
		if n.hash != nil {
			n.hash.match(nil, emit)
		}
		return
	}
	if c, ok := n.children[key[0]]; ok {
		c.match(key[1:], emit)
	}
	if n.star != nil {
		n.star.match(key[1:], emit)
	}
	if n.hash != nil {
		for i := 0; i <= len(key); i++ {
			n.hash.match(key[i:], emit)
		}
	}
}

// LiveHooks times live fan-out for metrics; the fan-out's counts are
// the broker's own (BrokerStats.Live*). It is the one hook the broker
// keeps: the timing site is inside the publish path, and mq links no
// metrics package.
type LiveHooks struct {
	// Fanout fires once per published message while live subscribers
	// exist, with the number of mailboxes reached and the fan-out wall
	// time (trie match + enqueues).
	Fanout func(subs int, d time.Duration)
}

// SetLiveHooks installs live fan-out observers (zero value detaches).
func (b *Broker) SetLiveHooks(h LiveHooks) { b.liveHooks.Store(&h) }

// SubscribeLive attaches a live subscriber to an exchange: every
// message that traverses the exchange (published to it directly or
// forwarded into it over exchange-to-exchange bindings) and matches
// one of the patterns is mailed to the subscription, in publish order,
// at most once per message. The exchange does not need to exist yet —
// a subscription is a tap on the name, not a binding.
func (b *Broker) SubscribeLive(exchange string, patterns []string, opts LiveSubOptions) (*LiveSub, error) {
	if exchange == "" {
		return nil, errors.New("mq: live subscribe needs an exchange")
	}
	if len(patterns) == 0 {
		return nil, errors.New("mq: live subscribe needs at least one pattern")
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 256
	}
	s := &LiveSub{
		b:      b,
		ch:     make(chan Message, buffer),
		done:   make(chan struct{}),
		budget: opts.Budget,
	}
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return nil, ErrBrokerClosed
	}
	b.liveMu.Lock()
	if b.liveTries == nil {
		b.liveTries = make(map[string]*liveNode)
	}
	root := b.liveTries[exchange]
	if root == nil {
		root = &liveNode{}
		b.liveTries[exchange] = root
	}
	var scratch []string
	for _, p := range patterns {
		scratch = splitWordsInto(scratch[:0], p)
		s.nodes = append(s.nodes, root.insert(scratch, s))
	}
	if b.liveSubs == nil {
		b.liveSubs = make(map[*LiveSub]struct{})
	}
	b.liveSubs[s] = struct{}{}
	b.liveCount.Add(1)
	b.liveMu.Unlock()
	return s, nil
}

// removeLiveSub detaches a subscription from the fan-out index.
func (b *Broker) removeLiveSub(s *LiveSub) {
	b.liveMu.Lock()
	if _, ok := b.liveSubs[s]; ok {
		delete(b.liveSubs, s)
		b.liveCount.Add(-1)
		for _, n := range s.nodes {
			n.remove(s)
		}
		s.nodes = nil
	}
	b.liveMu.Unlock()
}

// closeLiveSubs ends every live subscription; called by Broker.Close.
func (b *Broker) closeLiveSubs() {
	b.liveMu.Lock()
	subs := make([]*LiveSub, 0, len(b.liveSubs))
	for s := range b.liveSubs {
		subs = append(subs, s)
	}
	b.liveMu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// liveScratch is the fan-out path's reusable state: the split key,
// the per-message dedup set and the shed list.
type liveScratch struct {
	keyWords []string
	seen     map[*LiveSub]struct{}
	toShed   []*LiveSub
}

var liveScratchPool = sync.Pool{
	New: func() any {
		return &liveScratch{seen: make(map[*LiveSub]struct{}, 8)}
	},
}

func (sc *liveScratch) reset() {
	sc.keyWords = sc.keyWords[:0]
	sc.toShed = sc.toShed[:0]
	clear(sc.seen)
}

// fanoutLive mails msg to every live subscriber whose pattern matches
// the routing key on any of the exchanges the publish traversed.
// Called on the publish path after queue routing; when no live
// subscribers exist anywhere it costs one atomic load.
//
// Enqueue is non-blocking: a full mailbox drops the event and asks
// the sub's budget whether to shed. Shedding (LiveSub.Close) needs
// the live write lock, so it is deferred until after the read lock is
// released.
func (b *Broker) fanoutLive(exchanges []string, msg *Message) {
	if b.liveCount.Load() == 0 {
		return
	}
	h := b.liveHooks.Load()
	var start time.Time
	if h != nil && h.Fanout != nil {
		start = time.Now()
	}
	sc := liveScratchPool.Get().(*liveScratch)
	sc.keyWords = splitWordsInto(sc.keyWords[:0], msg.RoutingKey)
	reached := 0
	b.liveMu.RLock()
	for _, exName := range exchanges {
		root := b.liveTries[exName]
		if root == nil {
			continue
		}
		root.match(sc.keyWords, func(s *LiveSub) {
			if _, dup := sc.seen[s]; dup {
				return
			}
			sc.seen[s] = struct{}{}
			if s.closed.Load() {
				return
			}
			reached++
			select {
			case s.ch <- *msg:
				if s.budget != nil {
					s.budget.Sent()
				}
				b.liveDelivered.Add(1)
			default:
				b.liveDropped.Add(1)
				if s.budget != nil && s.budget.Full() {
					sc.toShed = append(sc.toShed, s)
				}
			}
		})
	}
	b.liveMu.RUnlock()
	for _, s := range sc.toShed {
		// Close takes the live write lock; mark the shed before Done
		// closes so the subscriber can tell shed from a plain close.
		if s.shedFlag.CompareAndSwap(false, true) {
			b.liveShed.Add(1)
		}
		s.Close()
	}
	if h != nil && h.Fanout != nil {
		h.Fanout(reached, time.Since(start))
	}
	sc.reset()
	liveScratchPool.Put(sc)
}
