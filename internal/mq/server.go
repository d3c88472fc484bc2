package mq

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// Server exposes a Broker over TCP using the wire protocol. One server
// goroutine accepts connections; each connection gets a reader
// goroutine; deliveries for the connection's consumers are written by
// per-consumer pump goroutines serialized through a write mutex.
type Server struct {
	broker *Broker
	ln     net.Listener

	mu    sync.Mutex
	conns map[net.Conn]*connState

	flowSub  *FlowSub
	flowDone chan struct{}

	stop chan struct{}
	done chan struct{}
}

// NewServer starts serving broker on addr ("host:port"; ":0" picks a
// free port). Call Addr for the bound address and Close to stop.
func NewServer(broker *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		broker:   broker,
		ln:       ln,
		conns:    make(map[net.Conn]*connState),
		flowSub:  broker.SubscribeFlow(),
		flowDone: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.flowLoop()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes live connections, and waits for the
// accept loop to exit.
func (s *Server) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	_ = s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	<-s.done
	s.broker.UnsubscribeFlow(s.flowSub)
	<-s.flowDone
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				wg.Wait()
				return
			default:
			}
			log.Printf("mq server: accept: %v", err)
			wg.Wait()
			return
		}
		cs := &connState{conn: conn, consumers: make(map[uint64]*Consumer), broker: s.broker}
		s.mu.Lock()
		s.conns[conn] = cs
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Flow snapshot first: a connection accepted mid-overload
			// must learn which queues are already paused before its
			// first publish.
			for _, q := range s.broker.PausedQueues() {
				if err := cs.send(&frame{Op: opFlow, Queue: q, Paused: true}); err != nil {
					break
				}
			}
			s.handleConn(cs)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// flowLoop broadcasts queue pause/resume transitions to every live
// connection as opFlow frames. Transitions are coalesced per queue, so
// a flapping queue costs at most one frame per state per drain.
func (s *Server) flowLoop() {
	defer close(s.flowDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.flowSub.C():
			events := s.flowSub.Drain()
			if len(events) == 0 {
				continue
			}
			s.mu.Lock()
			conns := make([]*connState, 0, len(s.conns))
			for _, cs := range s.conns {
				conns = append(conns, cs)
			}
			s.mu.Unlock()
			for _, ev := range events {
				f := &frame{Op: opFlow, Queue: ev.Queue, Paused: ev.Paused}
				for _, cs := range conns {
					// A dead conn fails its own send; the read loop
					// tears it down.
					_ = cs.send(f)
				}
			}
		}
	}
}

// connState tracks one connection's consumers so they can be torn
// down when the connection dies — the "mobile session buffering"
// behaviour: messages stay queued at the broker while the phone is
// disconnected.
type connState struct {
	writeMu   sync.Mutex
	conn      net.Conn
	consumers map[uint64]*Consumer
	mu        sync.Mutex

	// broker keeps the wire accounting.
	broker *Broker
}

func (cs *connState) send(f *frame) error {
	cs.writeMu.Lock()
	n, err := writeFrame(cs.conn, f)
	cs.writeMu.Unlock()
	if n > 0 {
		cs.broker.wireWritten.Add(uint64(n))
	}
	return err
}

func (s *Server) handleConn(cs *connState) {
	defer func() { _ = cs.conn.Close() }()
	cs.broker.conns.Add(1)
	defer cs.broker.conns.Add(-1)
	defer func() {
		cs.mu.Lock()
		consumers := make([]*Consumer, 0, len(cs.consumers))
		for _, c := range cs.consumers {
			consumers = append(consumers, c)
		}
		cs.consumers = make(map[uint64]*Consumer)
		cs.mu.Unlock()
		// Requeue what the dead session still held unacked, so the
		// messages are redelivered when the phone reconnects.
		for _, c := range consumers {
			c.CancelAndRequeue()
		}
	}()

	r := bufio.NewReader(cs.conn)
	var nextConsumerID uint64
	for {
		f, n, err := readFrame(r)
		if n > 0 {
			cs.broker.wireRead.Add(uint64(n))
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Connection-level noise (resets, partial frames) is
				// expected with mobile clients; log at most.
				select {
				case <-s.stop:
				default:
					log.Printf("mq server: read: %v", err)
				}
			}
			return
		}
		resp := s.dispatch(cs, f, &nextConsumerID)
		if resp != nil {
			if err := cs.send(resp); err != nil {
				return
			}
		}
	}
}

// dispatch executes one request frame and returns the response frame.
// The ops are the ones a phone, a subscriber or a load generator sends:
// publish, publish-batch, consume, cancel, ack and nack of a consumer's
// delivery, and queue-stats. Topology is provisioned in process by the
// server that owns the broker, never over the wire.
func (s *Server) dispatch(cs *connState, f *frame, nextConsumerID *uint64) *frame {
	ok := func() *frame { return &frame{Op: opOK, Corr: f.Corr} }
	fail := func(err error) *frame { return &frame{Op: opError, Corr: f.Corr, Error: err.Error()} }

	switch f.Op {
	case opPublish:
		at := f.PublishedAt
		if at.IsZero() {
			at = time.Now()
		}
		n, err := s.broker.PublishAtToken(f.Exchange, f.RoutingKey, f.Headers, f.Body, at, f.Token)
		if err != nil {
			return fail(err)
		}
		resp := ok()
		resp.Delivered = n
		return resp
	case opPublishBatch:
		// One frame, many messages: the uploader's flush sends its whole
		// buffered batch in a single round trip instead of one frame per
		// observation. Items missing a timestamp default to the frame's
		// PublishedAt, then to now.
		def := f.PublishedAt
		if def.IsZero() {
			def = time.Now()
		}
		items := f.Items
		for i := range items {
			if items[i].At.IsZero() {
				items[i].At = def
			}
		}
		n, err := s.broker.PublishBatch(f.Exchange, items)
		if err != nil {
			return fail(err)
		}
		resp := ok()
		resp.Delivered = n
		return resp
	case opConsume:
		c, err := s.broker.Consume(f.Queue, f.Prefetch)
		if err != nil {
			return fail(err)
		}
		*nextConsumerID++
		id := *nextConsumerID
		cs.mu.Lock()
		cs.consumers[id] = c
		cs.mu.Unlock()
		go pumpDeliveries(cs, id, c)
		resp := ok()
		resp.ConsumerID = id
		return resp
	case opCancel:
		cs.mu.Lock()
		c, found := cs.consumers[f.ConsumerID]
		delete(cs.consumers, f.ConsumerID)
		cs.mu.Unlock()
		if found {
			c.Cancel()
		}
		return ok()
	case opAck, opNack:
		cs.mu.Lock()
		c, found := cs.consumers[f.ConsumerID]
		cs.mu.Unlock()
		if !found {
			return fail(errors.New("mq: unknown consumer"))
		}
		var err error
		if f.Op == opAck {
			err = c.Ack(f.Tag)
		} else {
			err = c.Nack(f.Tag, f.Requeue)
		}
		if err != nil {
			return fail(err)
		}
		return ok()
	case opQueueStats:
		st, err := s.broker.QueueStats(f.Queue)
		if err != nil {
			return fail(err)
		}
		resp := ok()
		resp.Stats = &st
		return resp
	default:
		return fail(errors.New("mq: unknown op " + f.Op))
	}
}

// pumpDeliveries forwards consumer deliveries to the connection until
// the consumer channel closes.
func pumpDeliveries(cs *connState, consumerID uint64, c *Consumer) {
	for d := range c.C() {
		f := &frame{
			Op:          opDeliver,
			ConsumerID:  consumerID,
			Queue:       d.Queue,
			Tag:         d.Tag,
			Exchange:    d.Exchange,
			RoutingKey:  d.RoutingKey,
			Headers:     d.Headers,
			Body:        d.Body,
			PublishedAt: d.PublishedAt,
			MessageID:   d.ID,
			Redelivered: d.Redelivered,
		}
		if err := cs.send(f); err != nil {
			// Connection gone: return this and every other unacked
			// delivery to the queue for redelivery on reconnect.
			c.CancelAndRequeue()
			return
		}
	}
}
