package mq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ExchangeType selects the routing discipline of an exchange.
type ExchangeType int

// Exchange types, mirroring AMQP.
const (
	// Direct routes to bindings whose pattern equals the routing key.
	Direct ExchangeType = iota + 1
	// Fanout routes to every binding, ignoring the routing key.
	Fanout
	// Topic routes using dot-separated patterns with * and # wildcards.
	Topic
)

// String implements fmt.Stringer.
func (t ExchangeType) String() string {
	switch t {
	case Direct:
		return "direct"
	case Fanout:
		return "fanout"
	case Topic:
		return "topic"
	default:
		return fmt.Sprintf("ExchangeType(%d)", int(t))
	}
}

// Broker-level errors callers may match with errors.Is.
var (
	ErrExchangeNotFound = errors.New("mq: exchange not found")
	ErrQueueNotFound    = errors.New("mq: queue not found")
	ErrExchangeExists   = errors.New("mq: exchange already exists with a different type")
	ErrBrokerClosed     = errors.New("mq: broker closed")
)

// binding routes messages from an exchange to a queue or another
// exchange when the pattern matches.
type binding struct {
	pattern string
	// exactly one of toQueue / toExchange is set
	toQueue    string
	toExchange string
}

// exchange is a named routing node. bindings is the source of truth;
// idx is the compiled routing index (trie.go) kept in sync under the
// broker write lock.
type exchange struct {
	name     string
	typ      ExchangeType
	bindings []binding
	idx      exIndex

	// published counts the messages published to this exchange (not
	// those forwarded into it); unroutable those of them that reached
	// no queue.
	published  atomic.Uint64
	unroutable atomic.Uint64
}

// ExchangeStats is a point-in-time snapshot of one exchange's
// counters.
type ExchangeStats struct {
	Name       string `json:"name"`
	Published  uint64 `json:"published"`
	Unroutable uint64 `json:"unroutable"`
}

func (ex *exchange) stats() ExchangeStats {
	return ExchangeStats{Name: ex.name, Published: ex.published.Load(), Unroutable: ex.unroutable.Load()}
}

// BrokerStats aggregates broker counters. Every count is kept at one
// site, in the broker, an exchange or a queue; a metrics layer reads
// it from here.
type BrokerStats struct {
	// Exchanges and Queues snapshot every declared exchange and queue.
	Exchanges []ExchangeStats `json:"exchanges"`
	Queues    []QueueStats    `json:"queues"`
	// Routed counts deliveries: one per queue a publish reached.
	Routed uint64 `json:"routed"`
	// Route-cache counters: hits resolve lock-free; misses walk the
	// compiled indexes under the read lock; invalidations count
	// topology generations (declare/bind/delete), not evictions.
	RouteCacheHits          uint64 `json:"routeCacheHits"`
	RouteCacheMisses        uint64 `json:"routeCacheMisses"`
	RouteCacheInvalidations uint64 `json:"routeCacheInvalidations"`
	// PublishDedupHits counts publishes answered from the idempotency
	// token window instead of being enqueued again (client retries of
	// a publish whose response was lost).
	PublishDedupHits uint64 `json:"publishDedupHits"`
	// Connections is the number of open wire-protocol connections;
	// WireRead and WireWritten count their bytes, length prefixes
	// included.
	Connections int64  `json:"connections"`
	WireRead    uint64 `json:"wireRead"`
	WireWritten uint64 `json:"wireWritten"`
	// LiveDelivered counts events enqueued onto live mailboxes,
	// LiveDropped those dropped on a full one, and LiveShed the live
	// subscriptions disconnected for exhausting their send budget.
	LiveDelivered uint64 `json:"liveDelivered"`
	LiveDropped   uint64 `json:"liveDropped"`
	LiveShed      uint64 `json:"liveShed"`
}

// routeEntry is one memoized resolution: the full queue set an
// (exchange, routingKey) pair reaches, with exchange-to-exchange
// chains flattened. gen pins the topology generation the resolution
// saw; a mismatch with the broker's current generation makes the
// entry dead weight that the next miss overwrites.
type routeEntry struct {
	gen uint64
	// src is the exchange published to; it counts the publish.
	src    *exchange
	queues []*queue
	// exchanges are the names of every exchange the key's resolution
	// traversed (the published one plus exchange-to-exchange hops).
	// The live fan-out (live.go) taps messages on each of them, so a
	// subscriber of GFX sees messages published to a client exchange
	// that forwards into GFX.
	exchanges []string
}

// routeCache memoizes route resolutions. The two-level shape (outer
// sync.Map by exchange, inner sync.Map by routing key) keeps the hit
// path to two lock-free string-keyed loads and zero allocations.
type routeCache struct {
	exchanges sync.Map // exchange name -> *sync.Map of routingKey -> *routeEntry
	entries   atomic.Int64
}

// routeCacheMaxEntries caps memoized routes. When the population
// exceeds the cap the whole cache is swapped for an empty one (epoch
// eviction): entries are tiny and topologically scoped, so a full
// reset costs one pointer store and repopulates on the next misses —
// no LRU bookkeeping on the hot path.
const routeCacheMaxEntries = 1 << 17

// routeScratch holds the slow path's reusable resolution state: the
// split key, the BFS frontier/visited sets and the deduplicated
// target set. Pooled so a cache miss does not rebuild maps per
// publish (the pre-cache implementation allocated all of this on
// every single publish).
type routeScratch struct {
	keyWords []string
	frontier []*exchange
	visited  map[*exchange]struct{}
	seen     map[*queue]struct{}
	targets  []*queue
	exNames  []string
}

var routeScratchPool = sync.Pool{
	New: func() any {
		return &routeScratch{
			visited: make(map[*exchange]struct{}, 8),
			seen:    make(map[*queue]struct{}, 8),
		}
	},
}

// reset clears the scratch for reuse; maps are cleared (cheap
// runtime mapclear), slices retain capacity.
func (sc *routeScratch) reset() {
	sc.keyWords = sc.keyWords[:0]
	sc.frontier = sc.frontier[:0]
	sc.targets = sc.targets[:0]
	sc.exNames = sc.exNames[:0]
	clear(sc.visited)
	clear(sc.seen)
}

// Broker is an in-process AMQP-style message broker. It is safe for
// concurrent use. Serve it over TCP with NewServer.
//
// The counters are atomics so the publish hot path never takes the
// broker write lock and stats sampling (Stats, QueueStatsFast) never
// stalls publishers.
//
// Publishing is memoized: the first publish of an (exchange, key)
// pair resolves the destination queue set by walking the compiled
// routing indexes under the read lock and caches it; steady-state
// publishes hit the cache with two lock-free map loads and zero
// allocations. Any topology change (declare, bind, unbind, delete)
// bumps the generation counter, invalidating every cached route at
// once.
type Broker struct {
	mu        sync.RWMutex
	exchanges map[string]*exchange
	queues    map[string]*queue
	closed    bool

	routed atomic.Uint64

	// topoGen is the topology generation; bumped under mu.Lock by
	// every mutation. Cached routes are valid only for the generation
	// they were resolved under.
	topoGen atomic.Uint64
	routes  atomic.Pointer[routeCache]

	cacheHits          atomic.Uint64
	cacheMisses        atomic.Uint64
	cacheInvalidations atomic.Uint64

	// dedup memoizes publish idempotency tokens (dedup.go).
	dedup     *publishDedup
	dedupHits atomic.Uint64

	// Flow-control state (flow.go): subscribers receiving watermark
	// pause/resume transitions and the currently-paused queue set.
	flowMu       sync.Mutex
	flowSubs     map[*FlowSub]struct{}
	pausedQueues map[string]struct{}

	// Live-subscription fan-out state (live.go): per-exchange pattern
	// tries consulted by the publish path under liveMu's read lock.
	// liveCount gates the hot path — zero subscribers costs one atomic
	// load per publish.
	liveMu    sync.RWMutex
	liveTries map[string]*liveNode
	liveSubs  map[*LiveSub]struct{}
	liveCount atomic.Int64
	liveHooks atomic.Pointer[LiveHooks]

	liveDelivered, liveDropped, liveShed atomic.Uint64

	// Wire-protocol accounting, kept by the connections of server.go.
	conns                 atomic.Int64
	wireRead, wireWritten atomic.Uint64
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	b := &Broker{
		exchanges: make(map[string]*exchange),
		queues:    make(map[string]*queue),
		dedup:     newPublishDedup(),
	}
	b.routes.Store(&routeCache{})
	return b
}

// invalidateRoutes starts a new topology generation, instantly
// orphaning every memoized route. Callers hold b.mu.
func (b *Broker) invalidateRoutes() {
	b.topoGen.Add(1)
	b.routes.Store(&routeCache{})
	b.cacheInvalidations.Add(1)
}

// DeclareExchange creates an exchange; redeclaring with the same type
// is idempotent, a different type is an error.
func (b *Broker) DeclareExchange(name string, typ ExchangeType) error {
	if name == "" {
		return errors.New("mq: exchange name must not be empty")
	}
	if typ < Direct || typ > Topic {
		return fmt.Errorf("mq: invalid exchange type %d", int(typ))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if ex, ok := b.exchanges[name]; ok {
		if ex.typ != typ {
			return fmt.Errorf("declare %q as %v: %w", name, typ, ErrExchangeExists)
		}
		return nil
	}
	ex := &exchange{name: name, typ: typ}
	ex.reindex()
	b.exchanges[name] = ex
	b.invalidateRoutes()
	return nil
}

// DeleteExchange removes an exchange and every binding pointing at
// it, returning the exchange's counters as of its deletion so a caller
// summing them can keep them.
func (b *Broker) DeleteExchange(name string) (ExchangeStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gone, ok := b.exchanges[name]
	if !ok {
		return ExchangeStats{}, fmt.Errorf("delete exchange %q: %w", name, ErrExchangeNotFound)
	}
	delete(b.exchanges, name)
	for _, ex := range b.exchanges {
		kept := ex.bindings[:0]
		for _, bd := range ex.bindings {
			if bd.toExchange != name {
				kept = append(kept, bd)
			}
		}
		if len(kept) != len(ex.bindings) {
			ex.bindings = kept
			ex.reindex()
		}
	}
	b.invalidateRoutes()
	return gone.stats(), nil
}

// DeclareQueue creates a queue; redeclaration is idempotent (options
// of the first declaration win).
func (b *Broker) DeclareQueue(name string, opts QueueOptions) error {
	if name == "" {
		return errors.New("mq: queue name must not be empty")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if _, ok := b.queues[name]; ok {
		return nil
	}
	b.queues[name] = newQueue(name, opts, b.notifyFlow)
	b.invalidateRoutes()
	return nil
}

// DeleteQueue removes a queue, closing its consumers, and removes
// bindings pointing at it. It returns the queue's final counters so a
// caller summing them can keep them.
func (b *Broker) DeleteQueue(name string) (QueueStats, error) {
	b.mu.Lock()
	q, ok := b.queues[name]
	if !ok {
		b.mu.Unlock()
		return QueueStats{}, fmt.Errorf("delete queue %q: %w", name, ErrQueueNotFound)
	}
	delete(b.queues, name)
	for _, ex := range b.exchanges {
		kept := ex.bindings[:0]
		for _, bd := range ex.bindings {
			if bd.toQueue != name {
				kept = append(kept, bd)
			}
		}
		if len(kept) != len(ex.bindings) {
			ex.bindings = kept
			ex.reindex()
		}
	}
	b.invalidateRoutes()
	b.mu.Unlock()
	q.close()
	return q.statsFast(), nil
}

// BindQueue routes messages from exchange to queue when the pattern
// matches. Duplicate bindings are collapsed.
func (b *Broker) BindQueue(queueName, exchangeName, pattern string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ex, ok := b.exchanges[exchangeName]
	if !ok {
		return fmt.Errorf("bind to %q: %w", exchangeName, ErrExchangeNotFound)
	}
	if _, ok := b.queues[queueName]; !ok {
		return fmt.Errorf("bind queue %q: %w", queueName, ErrQueueNotFound)
	}
	for _, bd := range ex.bindings {
		if bd.toQueue == queueName && bd.pattern == pattern {
			return nil
		}
	}
	ex.addBinding(binding{pattern: pattern, toQueue: queueName})
	b.invalidateRoutes()
	return nil
}

// BindExchange routes messages from src to dst when the pattern
// matches (exchange-to-exchange binding, used by GoFlow to forward a
// client exchange into the application exchange, Figure 3).
func (b *Broker) BindExchange(dstExchange, srcExchange, pattern string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	src, ok := b.exchanges[srcExchange]
	if !ok {
		return fmt.Errorf("bind from %q: %w", srcExchange, ErrExchangeNotFound)
	}
	if _, ok := b.exchanges[dstExchange]; !ok {
		return fmt.Errorf("bind to exchange %q: %w", dstExchange, ErrExchangeNotFound)
	}
	for _, bd := range src.bindings {
		if bd.toExchange == dstExchange && bd.pattern == pattern {
			return nil
		}
	}
	src.addBinding(binding{pattern: pattern, toExchange: dstExchange})
	b.invalidateRoutes()
	return nil
}

// UnbindQueue removes a queue binding.
func (b *Broker) UnbindQueue(queueName, exchangeName, pattern string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ex, ok := b.exchanges[exchangeName]
	if !ok {
		return fmt.Errorf("unbind from %q: %w", exchangeName, ErrExchangeNotFound)
	}
	kept := ex.bindings[:0]
	for _, bd := range ex.bindings {
		if !(bd.toQueue == queueName && bd.pattern == pattern) {
			kept = append(kept, bd)
		}
	}
	if len(kept) != len(ex.bindings) {
		ex.bindings = kept
		ex.reindex()
		b.invalidateRoutes()
	}
	return nil
}

// lookupRoute returns the memoized route for (exchange, key) when one
// exists for the given generation. Lock-free and allocation-free.
func (b *Broker) lookupRoute(exchangeName, key string, gen uint64) *routeEntry {
	rc := b.routes.Load()
	innerAny, ok := rc.exchanges.Load(exchangeName)
	if !ok {
		return nil
	}
	entryAny, ok := innerAny.(*sync.Map).Load(key)
	if !ok {
		return nil
	}
	if e := entryAny.(*routeEntry); e.gen == gen {
		return e
	}
	return nil
}

// resolveRoute computes the queue set for (exchange, key) by walking
// the compiled routing indexes breadth-first across
// exchange-to-exchange bindings, then memoizes it under gen. gen must
// have been read before the resolution (a topology change in between
// leaves the entry stale-by-construction, never wrong).
func (b *Broker) resolveRoute(exchangeName, key string, gen uint64) (*routeEntry, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrBrokerClosed
	}
	ex, ok := b.exchanges[exchangeName]
	if !ok {
		b.mu.RUnlock()
		return nil, fmt.Errorf("publish to %q: %w", exchangeName, ErrExchangeNotFound)
	}
	sc := routeScratchPool.Get().(*routeScratch)
	sc.keyWords = splitWordsInto(sc.keyWords[:0], key)
	sc.frontier = append(sc.frontier, ex)
	sc.visited[ex] = struct{}{}
	sc.exNames = append(sc.exNames, ex.name)
	for len(sc.frontier) > 0 {
		cur := sc.frontier[0]
		sc.frontier = sc.frontier[1:]
		cur.match(key, sc.keyWords, func(d dest) {
			if d.toQueue != "" {
				if q, ok := b.queues[d.toQueue]; ok {
					if _, dup := sc.seen[q]; !dup {
						sc.seen[q] = struct{}{}
						sc.targets = append(sc.targets, q)
					}
				}
				return
			}
			if next, ok := b.exchanges[d.toExchange]; ok {
				if _, dup := sc.visited[next]; !dup {
					sc.visited[next] = struct{}{}
					sc.frontier = append(sc.frontier, next)
					sc.exNames = append(sc.exNames, next.name)
				}
			}
		})
	}
	b.mu.RUnlock()

	queues := make([]*queue, len(sc.targets))
	copy(queues, sc.targets)
	exchanges := make([]string, len(sc.exNames))
	copy(exchanges, sc.exNames)
	sc.reset()
	routeScratchPool.Put(sc)

	// Memoize (including unroutable keys: an empty set is the common
	// steady state for keys nobody subscribed to, and re-resolving
	// them per publish is exactly the O(bindings) scan being avoided).
	rc := b.routes.Load()
	innerAny, ok := rc.exchanges.Load(exchangeName)
	if !ok {
		innerAny, _ = rc.exchanges.LoadOrStore(exchangeName, &sync.Map{})
	}
	entry := &routeEntry{gen: gen, src: ex, queues: queues, exchanges: exchanges}
	if _, loaded := innerAny.(*sync.Map).Swap(key, entry); !loaded {
		if rc.entries.Add(1) > routeCacheMaxEntries {
			// Epoch eviction: swap in a fresh cache rather than track
			// recency per entry. Same generation — entries were valid,
			// just too many.
			b.routes.CompareAndSwap(rc, &routeCache{})
		}
	}
	return entry, nil
}

// route returns the route of one publish — the exchange published to,
// the destination queues and the traversed exchange names —,
// preferring the memoized route and falling back to resolution.
func (b *Broker) route(exchangeName, key string) (*routeEntry, error) {
	gen := b.topoGen.Load()
	if e := b.lookupRoute(exchangeName, key, gen); e != nil {
		b.cacheHits.Add(1)
		return e, nil
	}
	e, err := b.resolveRoute(exchangeName, key, gen)
	if err != nil {
		return nil, err
	}
	b.cacheMisses.Add(1)
	return e, nil
}

// countPublish counts one settled publish that reached delivered
// queues on the exchange it was published to.
func (b *Broker) countPublish(src *exchange, delivered int) {
	src.published.Add(1)
	if delivered == 0 {
		src.unroutable.Add(1)
	} else {
		b.routed.Add(uint64(delivered))
	}
}

// PublishAt routes a message stamped at: the receive time for a live
// publish, virtual time in the simulation. It returns the number of
// queues the message was delivered to (0 when unroutable, which is not
// an error).
//
// The message body and headers are shared copy-on-write across every
// destination queue: the broker never mutates them after publish, and
// neither may consumers.
func (b *Broker) PublishAt(exchangeName, routingKey string, headers map[string]string, body []byte, at time.Time) (int, error) {
	e, err := b.route(exchangeName, routingKey)
	if err != nil {
		return 0, err
	}
	msg := Message{
		ID:          nextMessageID(),
		Exchange:    exchangeName,
		RoutingKey:  routingKey,
		Headers:     headers,
		Body:        body,
		PublishedAt: at,
	}
	delivered := 0
	for _, q := range e.queues {
		if err := q.publish(&msg); err == nil {
			delivered++
		}
	}
	b.fanoutLive(e.exchanges, &msg)
	b.countPublish(e.src, delivered)
	return delivered, nil
}

// PublishAtToken is PublishAt with a publish idempotency token: when
// token is non-empty and inside the broker's dedup window, the
// message is not enqueued again and the original delivery count is
// returned. Resilient clients use this to retry publishes whose
// responses were lost without double-delivering.
func (b *Broker) PublishAtToken(exchangeName, routingKey string, headers map[string]string, body []byte, at time.Time, token string) (int, error) {
	if token != "" {
		if n, ok := b.dedup.lookup(token); ok {
			b.dedupHits.Add(1)
			return n, nil
		}
	}
	n, err := b.PublishAt(exchangeName, routingKey, headers, body, at)
	if err == nil && token != "" {
		b.dedup.record(token, n)
	}
	return n, err
}

// PublishItem is one message of a PublishBatch call.
type PublishItem struct {
	// RoutingKey used for binding matches.
	RoutingKey string `json:"routingKey"`
	// Headers carry application metadata; shared copy-on-write.
	Headers map[string]string `json:"headers,omitempty"`
	// Body is the payload; shared copy-on-write.
	Body []byte `json:"body,omitempty"`
	// At is the publish timestamp; zero means the batch receive time.
	At time.Time `json:"publishedAt,omitempty"`
	// Token is an optional idempotency token; items whose token sits
	// in the broker's dedup window are skipped on a batch replay.
	Token string `json:"token,omitempty"`
}

// PublishBatch routes a batch of messages to one exchange in a single
// broker crossing: route resolution is memoized per distinct key and
// each destination queue takes its lock once for all the messages it
// receives, instead of once per message. Per-message semantics are
// preserved — every item is routed by its own key and counted
// individually, and MaxLen drops behave as if
// the items had been published back to back.
//
// It returns the total number of deliveries (sum over items of the
// queues each reached).
func (b *Broker) PublishBatch(exchangeName string, items []PublishItem) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	now := time.Time{}
	type qbatch struct {
		q     *queue
		msgs  []Message
		items []int // item index per message, for settling failures
	}
	batches := make(map[*queue]*qbatch)
	order := make([]*qbatch, 0, 4)
	routedTo := make([]int, len(items))
	deduped := make([]bool, len(items))
	var src *exchange
	for i, it := range items {
		if it.Token != "" {
			if n, ok := b.dedup.lookup(it.Token); ok {
				// A replayed item the broker already settled: answer
				// from the memo, do not enqueue or count it again.
				b.dedupHits.Add(1)
				routedTo[i] = n
				deduped[i] = true
				continue
			}
		}
		e, err := b.route(exchangeName, it.RoutingKey)
		if err != nil {
			return 0, err
		}
		src = e.src
		at := it.At
		if at.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			at = now
		}
		msg := Message{
			ID:          nextMessageID(),
			Exchange:    exchangeName,
			RoutingKey:  it.RoutingKey,
			Headers:     it.Headers,
			Body:        it.Body,
			PublishedAt: at,
		}
		// Live fan-out happens per item, in batch order, and is skipped
		// for deduped replays above — the original publish already
		// reached the live subscribers once.
		b.fanoutLive(e.exchanges, &msg)
		routedTo[i] = len(e.queues)
		for _, q := range e.queues {
			qb, ok := batches[q]
			if !ok {
				qb = &qbatch{q: q}
				batches[q] = qb
				order = append(order, qb)
			}
			qb.msgs = append(qb.msgs, msg)
			qb.items = append(qb.items, i)
		}
	}
	for _, qb := range order {
		if err := qb.q.publishBatch(qb.msgs); err != nil {
			// Queue deleted concurrently: none of its messages landed.
			for _, idx := range qb.items {
				routedTo[idx]--
			}
		}
	}
	delivered := 0
	for i, n := range routedTo {
		delivered += n
		if deduped[i] {
			// Counted when the original publish settled; a replay only
			// contributes to the return value.
			continue
		}
		b.countPublish(src, n)
		if items[i].Token != "" {
			b.dedup.record(items[i].Token, n)
		}
	}
	return delivered, nil
}

// Consume subscribes to a queue. Prefetch bounds unacked deliveries in
// flight to this consumer (0 = unlimited, capped by channel size).
func (b *Broker) Consume(queueName string, prefetch int) (*Consumer, error) {
	b.mu.RLock()
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("consume %q: %w", queueName, ErrQueueNotFound)
	}
	chanSize := prefetch
	if chanSize <= 0 {
		chanSize = 128
	}
	c := &Consumer{
		queue:       q,
		ch:          make(chan Delivery, chanSize),
		prefetch:    prefetch,
		outstanding: make(map[uint64]struct{}),
	}
	if err := c.queue.addConsumer(c); err != nil {
		return nil, err
	}
	return c, nil
}

// QueueStats snapshots one queue's counters.
func (b *Broker) QueueStats(queueName string) (QueueStats, error) {
	b.mu.RLock()
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		return QueueStats{}, fmt.Errorf("stats %q: %w", queueName, ErrQueueNotFound)
	}
	return q.stats(), nil
}

// QueueStatsFast snapshots one queue's counters without touching the
// queue mutex: every field is read from atomics, so high-frequency
// metric sampling cannot stall publishers or consumers.
func (b *Broker) QueueStatsFast(queueName string) (QueueStats, error) {
	b.mu.RLock()
	q, ok := b.queues[queueName]
	b.mu.RUnlock()
	if !ok {
		return QueueStats{}, fmt.Errorf("stats %q: %w", queueName, ErrQueueNotFound)
	}
	return q.statsFast(), nil
}

// Stats snapshots broker counters. Every counter is an atomic; only
// listing the exchanges and queues takes the shared read lock, which
// publishers also use — sampling never blocks a publish.
func (b *Broker) Stats() BrokerStats {
	st := BrokerStats{
		Routed:                  b.routed.Load(),
		RouteCacheHits:          b.cacheHits.Load(),
		RouteCacheMisses:        b.cacheMisses.Load(),
		RouteCacheInvalidations: b.cacheInvalidations.Load(),
		PublishDedupHits:        b.dedupHits.Load(),
		Connections:             b.conns.Load(),
		WireRead:                b.wireRead.Load(),
		WireWritten:             b.wireWritten.Load(),
		LiveDelivered:           b.liveDelivered.Load(),
		LiveDropped:             b.liveDropped.Load(),
		LiveShed:                b.liveShed.Load(),
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	st.Exchanges = make([]ExchangeStats, 0, len(b.exchanges))
	for _, ex := range b.exchanges {
		st.Exchanges = append(st.Exchanges, ex.stats())
	}
	st.Queues = make([]QueueStats, 0, len(b.queues))
	for _, q := range b.queues {
		st.Queues = append(st.Queues, q.statsFast())
	}
	return st
}

// Close shuts the broker: all queues are closed and further operations
// fail with ErrBrokerClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	queues := make([]*queue, 0, len(b.queues))
	for _, q := range b.queues {
		queues = append(queues, q)
	}
	b.queues = make(map[string]*queue)
	b.exchanges = make(map[string]*exchange)
	b.invalidateRoutes()
	b.mu.Unlock()
	b.closeLiveSubs()
	for _, q := range queues {
		q.close()
	}
}
