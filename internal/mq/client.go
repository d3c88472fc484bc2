package mq

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Connection lifecycle errors callers may match with errors.Is.
var (
	// ErrClosed reports an operation on a connection torn down by
	// Close or by an exhausted reconnect budget.
	ErrClosed = errors.New("mq: connection closed")
	// ErrReconnecting reports an operation attempted while the
	// connection is between transports. Publishes retry through this
	// state internally; other RPCs fail fast so callers can decide.
	ErrReconnecting = errors.New("mq: connection reconnecting")
	// ErrRPCTimeout reports an RPC whose response did not arrive
	// within the configured window; the transport is assumed dead and
	// recovery starts.
	ErrRPCTimeout = errors.New("mq: rpc timed out")
)

// BrokerError is a broker-side rejection relayed over the wire (bad
// exchange type, unknown queue, ...). It is never retried.
type BrokerError struct{ Msg string }

func (e *BrokerError) Error() string { return e.Msg }

// Connection states.
const (
	stateConnected int32 = iota
	stateReconnecting
	stateClosed
)

// maxOrphanedDeliveries bounds how many deliveries per consumer id may
// wait for the consumer registration to land; beyond it they are
// nacked back to the queue.
const maxOrphanedDeliveries = 256

// defaultFlowWait bounds how long a publish waits for a paused queue
// to resume before proceeding anyway. Flow control is advisory — it
// spreads bursts out, it must never deadlock a publisher against a
// broker whose consumers died.
const defaultFlowWait = 2 * time.Second

// transport is one TCP session under a Conn. A resilient Conn runs a
// sequence of transports; done closes when the transport's read loop
// exits, releasing any RPC parked on it.
type transport struct {
	nc   net.Conn
	done chan struct{}
}

// Conn is a client connection to a broker Server. It multiplexes
// synchronous RPCs (publish, consume, ack, queue stats) and
// asynchronous deliveries over one TCP connection, mirroring an AMQP
// channel. Topology is not its business: the server provisions every
// exchange, queue and binding in process.
//
// A Conn opened with DialResilient survives transport failures: it
// reconnects with exponential backoff, re-attaches its consumers, and
// retries publishes with idempotency tokens the broker dedupes — see
// reconnect.go.
type Conn struct {
	addr string
	cfg  *ReconnectConfig // nil = single-shot connection (Dial)

	writeMu sync.Mutex

	mu          sync.Mutex
	state       int32
	tr          *transport
	nextCorr    uint64
	pending     map[uint64]chan *frame
	consumerSet map[*RemoteConsumer]struct{} // authoritative subscriptions
	consumers   map[uint64]*RemoteConsumer   // current-session id routing
	orphans     map[uint64][]Delivery        // deliveries racing consumer registration
	closeErr    error
	connected   chan struct{} // closed whenever state == stateConnected

	// Flow control (server-pushed opFlow frames): the set of queues
	// asking publishers to pause and a channel closed when the set
	// empties. Publishes gate on it for up to defaultFlowWait before
	// proceeding anyway (advisory backpressure never deadlocks).
	flowPaused map[string]struct{}
	flowResume chan struct{}

	closeOnce sync.Once
	closedCh  chan struct{} // closed on Close / permanent failure

	tokenPrefix string
	tokenSeq    atomic.Uint64

	reconnects     atomic.Uint64
	publishRetries atomic.Uint64

	wg sync.WaitGroup // read loops + reconnect loop
}

// _connNonce distinguishes token prefixes of conns dialed in the same
// nanosecond.
var _connNonce atomic.Uint64

// Dial connects to a broker server. The connection is single-shot: a
// transport failure fails every operation with ErrClosed and the
// conn is done. Use DialResilient for automatic recovery.
func Dial(addr string) (*Conn, error) {
	return dialConn(addr, nil)
}

func defaultDialer(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

func dialConn(addr string, cfg *ReconnectConfig) (*Conn, error) {
	dial := defaultDialer
	if cfg != nil && cfg.Dialer != nil {
		dial = cfg.Dialer
	}
	nc, err := dial(addr)
	if err != nil {
		return nil, &DialError{Addr: addr, Err: err}
	}
	connected := make(chan struct{})
	close(connected)
	flowResume := make(chan struct{})
	close(flowResume)
	c := &Conn{
		addr:        addr,
		cfg:         cfg,
		pending:     make(map[uint64]chan *frame),
		consumerSet: make(map[*RemoteConsumer]struct{}),
		consumers:   make(map[uint64]*RemoteConsumer),
		orphans:     make(map[uint64][]Delivery),
		connected:   connected,
		closedCh:    make(chan struct{}),
		flowPaused:  make(map[string]struct{}),
		flowResume:  flowResume,
		tokenPrefix: strconv.FormatInt(time.Now().UnixNano(), 36) + "." +
			strconv.FormatUint(_connNonce.Add(1), 36),
	}
	c.installTransport(nc)
	return c, nil
}

// DialError wraps a failed dial attempt.
type DialError struct {
	Addr string
	Err  error
}

func (e *DialError) Error() string { return "mq dial " + e.Addr + ": " + e.Err.Error() }
func (e *DialError) Unwrap() error { return e.Err }

// installTransport registers nc as the current transport and starts
// its read loop. Returns nil when the conn closed concurrently (the
// caller must close nc itself).
func (c *Conn) installTransport(nc net.Conn) *transport {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	tr := &transport{nc: nc, done: make(chan struct{})}
	c.tr = tr
	// Add under the lock: Close holds it before Wait, so the counter
	// can never be observed at zero with a loop still starting.
	c.wg.Add(1)
	c.mu.Unlock()
	go c.readLoop(tr)
	return tr
}

// Close tears down the connection; in-flight RPCs fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	tr := c.tr
	c.failAllLocked(ErrClosed) // unlocks
	var err error
	if tr != nil {
		err = tr.nc.Close()
	}
	c.wg.Wait()
	return err
}

// failAllLocked transitions to closed, waking every pending RPC and
// closing consumer channels. Caller holds c.mu; it unlocks.
func (c *Conn) failAllLocked(err error) {
	c.state = stateClosed
	if c.closeErr == nil {
		c.closeErr = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *frame)
	consumers := c.consumerSet
	c.consumerSet = make(map[*RemoteConsumer]struct{})
	c.consumers = make(map[uint64]*RemoteConsumer)
	c.orphans = make(map[uint64][]Delivery)
	c.clearFlowLocked()
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closedCh) })
	for _, ch := range pending {
		close(ch)
	}
	for rc := range consumers {
		rc.closeChan()
	}
}

// transportBroken reacts to a dead transport: single-shot conns fail
// permanently, resilient conns enter the reconnecting state and spawn
// the recovery loop. No-op unless tr is still the current transport
// of a connected conn (replay transports are owned by the reconnect
// loop, which handles their failures itself).
func (c *Conn) transportBroken(tr *transport, cause error) {
	c.mu.Lock()
	if c.tr != tr || c.state != stateConnected {
		c.mu.Unlock()
		return
	}
	if c.cfg == nil {
		c.failAllLocked(cause) // unlocks
		_ = tr.nc.Close()
		return
	}
	c.state = stateReconnecting
	c.connected = make(chan struct{})
	pending := c.pending
	c.pending = make(map[uint64]chan *frame)
	// Parked deliveries belonged to the dead session; the server
	// requeues its unacked messages, so dropping the local copies
	// cannot lose anything.
	c.orphans = make(map[uint64][]Delivery)
	// Pause state died with the session too; the next connection gets
	// a fresh snapshot right after accept.
	c.clearFlowLocked()
	c.wg.Add(1) // under the lock, same ordering argument as installTransport
	c.mu.Unlock()
	_ = tr.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
	go c.reconnectLoop(cause)
}

func (c *Conn) readLoop(tr *transport) {
	defer c.wg.Done()
	defer close(tr.done)
	r := bufio.NewReader(tr.nc)
	for {
		f, _, err := readFrame(r)
		if err != nil {
			c.transportBroken(tr, err)
			return
		}
		switch f.Op {
		case opFlow:
			c.mu.Lock()
			c.applyFlowLocked(f.Queue, f.Paused)
			c.mu.Unlock()
		case opDeliver:
			d := Delivery{
				Message: Message{
					ID:          f.MessageID,
					Exchange:    f.Exchange,
					RoutingKey:  f.RoutingKey,
					Headers:     f.Headers,
					Body:        f.Body,
					PublishedAt: f.PublishedAt,
					Redelivered: f.Redelivered,
				},
				Tag:   f.Tag,
				Queue: f.Queue,
			}
			c.mu.Lock()
			rc := c.consumers[f.ConsumerID]
			if rc == nil {
				// The server starts delivering the moment a consume is
				// processed, so a delivery can outrun the goroutine
				// registering the consumer id (Consume caller or the
				// replay loop). Park it; attachConsumer flushes the
				// buffer in arrival order. A genuinely orphaned id
				// (cancel race, runaway) is capped and nacked back.
				if len(c.orphans[f.ConsumerID]) < maxOrphanedDeliveries {
					c.orphans[f.ConsumerID] = append(c.orphans[f.ConsumerID], d)
					c.mu.Unlock()
					continue
				}
				c.mu.Unlock()
				go c.sendNoReply(tr, &frame{Op: opNack, ConsumerID: f.ConsumerID, Tag: f.Tag, Requeue: true})
				continue
			}
			c.mu.Unlock()
			rc.deliver(d)
		default:
			c.mu.Lock()
			ch := c.pending[f.Corr]
			delete(c.pending, f.Corr)
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		}
	}
}

// applyFlowLocked updates the paused-queue set, maintaining the
// invariant that flowResume is a closed channel exactly when the set
// is empty. Caller holds c.mu.
func (c *Conn) applyFlowLocked(queue string, paused bool) {
	if paused {
		if _, ok := c.flowPaused[queue]; ok {
			return
		}
		if len(c.flowPaused) == 0 {
			c.flowResume = make(chan struct{})
		}
		c.flowPaused[queue] = struct{}{}
		return
	}
	if _, ok := c.flowPaused[queue]; !ok {
		return
	}
	delete(c.flowPaused, queue)
	if len(c.flowPaused) == 0 {
		close(c.flowResume)
	}
}

// clearFlowLocked forgets all pause state and releases gated
// publishers — the session the pauses belonged to is gone; the server
// re-sends a snapshot on the next connection. Caller holds c.mu.
func (c *Conn) clearFlowLocked() {
	if len(c.flowPaused) > 0 {
		c.flowPaused = make(map[string]struct{})
		close(c.flowResume)
	}
}

// flowGate holds a publish while the broker has any queue paused, up
// to defaultFlowWait. The gate is advisory: on timeout (or a closed
// conn) the publish proceeds and takes its chances with the queue's
// MaxLen.
func (c *Conn) flowGate() {
	c.mu.Lock()
	ch := c.flowResume
	c.mu.Unlock()
	select {
	case <-ch:
		return
	default:
	}
	t := time.NewTimer(defaultFlowWait)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-c.closedCh:
	}
}

// sendNoReply writes a frame without a correlation id; the server's
// response (Corr 0) is ignored by the read loop.
func (c *Conn) sendNoReply(tr *transport, f *frame) {
	c.writeMu.Lock()
	_, _ = writeFrame(tr.nc, f)
	c.writeMu.Unlock()
}

// stateErr maps the current state to its typed error after a pending
// RPC channel was closed under the caller.
func (c *Conn) stateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == stateClosed {
		return ErrClosed
	}
	return ErrReconnecting
}

func (c *Conn) unregisterPending(corr uint64) {
	c.mu.Lock()
	delete(c.pending, corr)
	c.mu.Unlock()
}

// transportRPC runs one request/response exchange over an explicit
// transport. It is the shared engine of rpc (current transport) and
// consumer re-attachment (a transport not yet promoted to connected).
func (c *Conn) transportRPC(tr *transport, f *frame) (*frame, error) {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextCorr++
	f.Corr = c.nextCorr
	ch := make(chan *frame, 1)
	c.pending[f.Corr] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	_, err := writeFrame(tr.nc, f)
	c.writeMu.Unlock()
	if err != nil {
		c.unregisterPending(f.Corr)
		c.transportBroken(tr, err)
		return nil, err
	}

	var timeout <-chan time.Time
	if c.cfg != nil && c.cfg.RPCTimeout > 0 {
		t := time.NewTimer(c.cfg.RPCTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.stateErr()
		}
		if resp.Op == opError {
			return nil, &BrokerError{Msg: resp.Error}
		}
		return resp, nil
	case <-timeout:
		// No response inside the window: the link is black-holed (a
		// one-way partition) or dead. Treat the transport as broken.
		c.unregisterPending(f.Corr)
		c.transportBroken(tr, ErrRPCTimeout)
		return nil, ErrRPCTimeout
	case <-tr.done:
		// The transport died while we waited and nobody rerouted our
		// pending entry (replay transports): fail with the state error.
		c.unregisterPending(f.Corr)
		return nil, c.stateErr()
	}
}

// rpc sends one frame over the current transport and waits for the
// correlated response. On a closed or reconnecting conn it fails fast
// with ErrClosed / ErrReconnecting.
func (c *Conn) rpc(f *frame) (*frame, error) {
	c.mu.Lock()
	switch c.state {
	case stateClosed:
		c.mu.Unlock()
		return nil, ErrClosed
	case stateReconnecting:
		c.mu.Unlock()
		return nil, ErrReconnecting
	}
	tr := c.tr
	c.mu.Unlock()
	return c.transportRPC(tr, f)
}

// PublishAt publishes a message stamped at and returns the number of
// destination queues. On a resilient conn the publish carries an
// idempotency token and is retried across reconnects; the broker
// dedupes redeliveries, so a retried publish lands at most once.
func (c *Conn) PublishAt(exchangeName, routingKey string, headers map[string]string, body []byte, at time.Time) (int, error) {
	f := &frame{Op: opPublish, Exchange: exchangeName, RoutingKey: routingKey, Headers: headers, Body: body, PublishedAt: at}
	resp, err := c.publishRPC(f)
	if err != nil {
		return 0, err
	}
	return resp.Delivered, nil
}

// PublishBatch publishes a batch of messages to one exchange in a
// single wire round trip. Returns the total number of queue
// deliveries across the batch. Items without a timestamp are stamped
// with the broker's receive time. On a resilient conn every item
// carries its own idempotency token, so a retried batch replays only
// the items the broker has not seen.
func (c *Conn) PublishBatch(exchangeName string, items []PublishItem) (int, error) {
	f := &frame{Op: opPublishBatch, Exchange: exchangeName, Items: items}
	if c.cfg != nil {
		for i := range f.Items {
			if f.Items[i].Token == "" {
				f.Items[i].Token = c.mintToken()
			}
		}
	}
	resp, err := c.publishRPC(f)
	if err != nil {
		return 0, err
	}
	return resp.Delivered, nil
}

// QueueStats fetches remote queue counters.
func (c *Conn) QueueStats(queueName string) (QueueStats, error) {
	resp, err := c.rpc(&frame{Op: opQueueStats, Queue: queueName})
	if err != nil {
		return QueueStats{}, err
	}
	if resp.Stats == nil {
		return QueueStats{}, errors.New("mq: missing stats in response")
	}
	return *resp.Stats, nil
}

// Consume subscribes to a remote queue; deliveries arrive on the
// returned RemoteConsumer's channel. On a resilient conn the
// subscription is re-attached after a reconnect and resumes from the
// broker-side buffer: deliveries the dead session left unacked are
// requeued by the server and redelivered.
func (c *Conn) Consume(queueName string, prefetch int) (*RemoteConsumer, error) {
	resp, err := c.rpc(&frame{Op: opConsume, Queue: queueName, Prefetch: prefetch})
	if err != nil {
		return nil, err
	}
	rc := &RemoteConsumer{
		conn:     c,
		queue:    queueName,
		prefetch: prefetch,
		ch:       make(chan Delivery, 128),
	}
	c.mu.Lock()
	c.consumerSet[rc] = struct{}{}
	c.attachConsumerLocked(resp.ConsumerID, rc)
	c.mu.Unlock()
	return rc, nil
}

// attachConsumerLocked registers rc under its server-session id and
// flushes deliveries that outran the registration, in arrival order.
// Caller holds c.mu — the read loop blocks on it to route deliveries,
// so nothing can interleave with the flush.
func (c *Conn) attachConsumerLocked(id uint64, rc *RemoteConsumer) {
	rc.id.Store(id)
	c.consumers[id] = rc
	buffered := c.orphans[id]
	delete(c.orphans, id)
	for _, d := range buffered {
		rc.deliver(d)
	}
}

// RemoteConsumer is the client-side view of a remote subscription.
type RemoteConsumer struct {
	conn     *Conn
	queue    string
	prefetch int

	// id is the server-session consumer id; it changes when a
	// resilient conn re-attaches the subscription after a reconnect.
	id atomic.Uint64

	mu     sync.Mutex
	ch     chan Delivery
	closed bool
}

// C returns the delivery channel; it closes when the consumer is
// cancelled or the connection dies permanently. It stays open across
// reconnects of a resilient conn.
func (rc *RemoteConsumer) C() <-chan Delivery { return rc.ch }

func (rc *RemoteConsumer) deliver(d Delivery) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return
	}
	// Block-free best effort: the channel is sized above typical
	// prefetch; if the application is too slow the delivery is
	// nacked back to the queue.
	select {
	case rc.ch <- d:
	default:
		go func() { _ = rc.Nack(d.Tag, true) }()
	}
}

func (rc *RemoteConsumer) closeChan() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.closed {
		rc.closed = true
		close(rc.ch)
	}
}

// Ack acknowledges a delivery from this consumer.
func (rc *RemoteConsumer) Ack(tag uint64) error {
	_, err := rc.conn.rpc(&frame{Op: opAck, ConsumerID: rc.id.Load(), Tag: tag})
	return err
}

// Nack rejects a delivery from this consumer.
func (rc *RemoteConsumer) Nack(tag uint64, requeue bool) error {
	_, err := rc.conn.rpc(&frame{Op: opNack, ConsumerID: rc.id.Load(), Tag: tag, Requeue: requeue})
	return err
}

// Cancel stops the subscription. The local teardown happens even when
// the cancel RPC fails (closed or reconnecting conn).
func (rc *RemoteConsumer) Cancel() error {
	_, err := rc.conn.rpc(&frame{Op: opCancel, ConsumerID: rc.id.Load()})
	rc.conn.mu.Lock()
	delete(rc.conn.consumers, rc.id.Load())
	delete(rc.conn.consumerSet, rc)
	// Deliveries parked for this id are already requeued server-side
	// by the cancel; drop the local copies.
	delete(rc.conn.orphans, rc.id.Load())
	rc.conn.mu.Unlock()
	rc.closeChan()
	return err
}
