package mq

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Recovery-path tests: typed lifecycle errors, rpc-racing-close,
// reconnect with consumer re-attachment, idempotent publish retry,
// reconnect latency, and goroutine hygiene.

// bouncer is a dialer that records every transport it opens so tests
// can kill the current one and force a reconnect.
type bouncer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (b *bouncer) dial(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.conns = append(b.conns, nc)
	b.mu.Unlock()
	return nc, nil
}

func (b *bouncer) killCurrent() {
	b.mu.Lock()
	nc := b.conns[len(b.conns)-1]
	b.mu.Unlock()
	_ = nc.Close()
}

func (b *bouncer) dials() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.conns)
}

// dialResilientTest opens a resilient conn with fast test timings.
func dialResilientTest(t *testing.T, s *Server, b *bouncer, tweak func(*ReconnectConfig)) *Conn {
	t.Helper()
	cfg := ReconnectConfig{
		Dialer:      b.dial,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        1,
		RPCTimeout:  2 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := DialResilient(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitReconnects waits until c has completed n recoveries. It polls
// with a short sleep (a spinning poll would starve the network poller),
// so BenchmarkReconnectReattach reads the reconnect plus up to one
// timer tick.
func waitReconnects(t testing.TB, c *Conn, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Reconnects < n {
		if time.Now().After(deadline) {
			t.Fatalf("reconnect %d did not complete within 5s", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// connErr is the error that ended c, nil while it is alive.
func connErr(c *Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != stateClosed {
		return nil
	}
	return c.closeErr
}

// declareTopology provisions what the tests publish to and consume
// from, in process, as the server does.
func declareTopology(t testing.TB, b *Broker) {
	t.Helper()
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
}

func TestClosedConnReturnsTypedErrors(t *testing.T) {
	_, s := startServer(t)
	c := dialTest(t, s)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after Close: %v, want ErrClosed", err)
	}
	if _, err := c.QueueStats("q"); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueueStats after Close: %v, want ErrClosed", err)
	}
	if _, err := c.Consume("q", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Consume after Close: %v, want ErrClosed", err)
	}
	if err := c.WaitConnected(10 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitConnected after Close: %v, want ErrClosed", err)
	}
	if err := connErr(c); !errors.Is(err, ErrClosed) {
		t.Fatalf("closing error after Close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSingleShotTransportDeathFailsClosed(t *testing.T) {
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
		t.Fatal(err)
	}
	s.Close() // kills the transport under the single-shot conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now())
		if errors.Is(err, ErrClosed) {
			break
		}
		if err == nil || time.Now().After(deadline) {
			t.Fatalf("Publish on dead single-shot conn: %v, want ErrClosed", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := connErr(c); err == nil {
		t.Fatal("no closing error after transport death")
	}
}

func TestReconnectingConnFailsFastTyped(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	gate := make(chan struct{})
	var dials atomic.Int32
	c := dialResilientTest(t, s, b, func(cfg *ReconnectConfig) {
		inner := cfg.Dialer
		cfg.Dialer = func(addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				<-gate // hold the conn in the reconnecting state
			}
			return inner(addr)
		}
	})
	declareTopology(t, broker)
	b.killCurrent()

	// While the redial is gated, RPCs other than publishes must fail
	// fast with ErrReconnecting — not hang, not panic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.QueueStats("q")
		if errors.Is(err, ErrReconnecting) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("QueueStats during outage: %v, want ErrReconnecting", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := connErr(c); err != nil {
		t.Fatalf("closing error during reconnect = %v, want nil (conn still alive)", err)
	}
	close(gate)
	waitReconnects(t, c, 1)
	if _, err := c.QueueStats("q"); err != nil {
		t.Fatalf("queue stats after recovery: %v", err)
	}
}

func TestRPCRacingCloseNoPanicNoHang(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	c := dialResilientTest(t, s, b, nil)
	declareTopology(t, broker)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := c.PublishAt("x", "k", nil, []byte(fmt.Sprintf("g%d-%d", g, i)), time.Now())
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrReconnecting) {
						t.Errorf("racing publish: unexpected error %v", err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("Close during racing publishes: %v", err)
	}
	wg.Wait() // must not hang
	if _, err := c.PublishAt("x", "k", nil, []byte("after"), time.Now()); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after racing close: %v, want ErrClosed", err)
	}
}

func TestReconnectReattachesConsumers(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	c := dialResilientTest(t, s, b, nil)
	declareTopology(t, broker)
	rc, err := c.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.PublishAt("x", "k", nil, []byte("before"), time.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-rc.C():
		if string(d.Body) != "before" {
			t.Fatalf("got %q", d.Body)
		}
		if err := rc.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before bounce")
	}

	b.killCurrent()
	waitReconnects(t, c, 1)

	// The same consumer must work on the new transport without the
	// caller subscribing again.
	if _, err := c.PublishAt("x", "k", nil, []byte("after"), time.Now()); err != nil {
		t.Fatalf("publish after reconnect: %v", err)
	}
	select {
	case d := <-rc.C():
		if string(d.Body) != "after" {
			t.Fatalf("got %q after reconnect", d.Body)
		}
		if err := rc.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer did not survive the reconnect")
	}

	st := c.Stats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if b.dials() != 2 {
		t.Fatalf("dialed %d transports, want 2", b.dials())
	}
}

func TestReconnectRedeliversUnackedInOrder(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	c := dialResilientTest(t, s, b, nil)
	declareTopology(t, broker)
	rc, err := c.Consume("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.PublishAt("x", "k", nil, []byte(fmt.Sprintf("m%d", i)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Receive everything but ack nothing: the deliveries stay unacked
	// in the dying session.
	for i := 0; i < n; i++ {
		select {
		case d := <-rc.C():
			if string(d.Body) != fmt.Sprintf("m%d", i) {
				t.Fatalf("pre-bounce delivery %d = %q", i, d.Body)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("missing pre-bounce delivery %d", i)
		}
	}

	b.killCurrent()
	waitReconnects(t, c, 1)

	// The server requeued the dead session's unacked messages; the
	// re-attached consumer must get all of them, redelivered, in the
	// original publish order, exactly once.
	for i := 0; i < n; i++ {
		select {
		case d := <-rc.C():
			if string(d.Body) != fmt.Sprintf("m%d", i) {
				t.Fatalf("redelivery %d = %q, want m%d (order lost)", i, d.Body, i)
			}
			if !d.Redelivered {
				t.Fatalf("redelivery %d not flagged Redelivered", i)
			}
			if err := rc.Ack(d.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("missing redelivery %d", i)
		}
	}
	select {
	case d := <-rc.C():
		t.Fatalf("duplicate delivery %q", d.Body)
	case <-time.After(50 * time.Millisecond):
	}
}

// readHole wraps a net.Conn so the test can black-hole the read
// direction: requests keep flowing, responses vanish — the lost-reply
// scenario idempotency tokens exist for.
type readHole struct {
	net.Conn
	block     atomic.Bool
	closeOnce sync.Once
	closed    chan struct{}
}

func (h *readHole) Read(b []byte) (int, error) {
	n, err := h.Conn.Read(b)
	if h.block.Load() {
		<-h.closed
		return 0, io.EOF
	}
	return n, err
}

func (h *readHole) Close() error {
	h.closeOnce.Do(func() { close(h.closed) })
	return h.Conn.Close()
}

func TestPublishRetryDedupesOnLostResponse(t *testing.T) {
	broker, s := startServer(t)
	var first *readHole
	var dials atomic.Int32
	c, err := DialResilient(s.Addr(), ReconnectConfig{
		Dialer: func(addr string) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				first = &readHole{Conn: nc, closed: make(chan struct{})}
				return first, nil
			}
			return nc, nil
		},
		BackoffBase: time.Millisecond,
		RPCTimeout:  100 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	declareTopology(t, broker)

	// From here on the broker receives our frames but we never see the
	// responses: the publish must time out, reconnect, and re-send with
	// the same idempotency token; the broker must answer the retry from
	// its dedup window without enqueueing a second copy.
	first.block.Store(true)
	n, err := c.PublishAt("x", "k", nil, []byte("once"), time.Now())
	if err != nil {
		t.Fatalf("publish across lost response: %v", err)
	}
	if n != 1 {
		t.Fatalf("publish delivered to %d queues, want 1 (memoized count)", n)
	}
	waitReconnects(t, c, 1)

	st := c.Stats()
	if st.PublishRetries == 0 {
		t.Fatal("publish was not retried")
	}
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if hits := broker.Stats().PublishDedupHits; hits != 1 {
		t.Fatalf("PublishDedupHits = %d, want 1", hits)
	}
	qs, err := c.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.Published != 1 || qs.Ready != 1 {
		t.Fatalf("queue saw %d publishes / %d ready, want exactly 1 (duplicate enqueue)", qs.Published, qs.Ready)
	}
}

func TestBrokerPublishTokenDedup(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	if err := b.DeclareExchange("x", Fanout); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQueue("q", "x", ""); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_600_000_000, 0)
	n1, err := b.PublishAtToken("x", "k", nil, []byte("m"), at, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := b.PublishAtToken("x", "k", nil, []byte("m"), at, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 1 || n2 != 1 {
		t.Fatalf("delivered counts %d, %d — retry must return the memoized count", n1, n2)
	}
	qs, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.Published != 1 {
		t.Fatalf("queue saw %d publishes, want 1", qs.Published)
	}
	if hits := b.Stats().PublishDedupHits; hits != 1 {
		t.Fatalf("PublishDedupHits = %d, want 1", hits)
	}

	// Batch path: a replayed batch re-enqueues only unseen items.
	items := []PublishItem{
		{RoutingKey: "k", Body: []byte("a"), Token: "tok-a"},
		{RoutingKey: "k", Body: []byte("b"), Token: "tok-b"},
	}
	if _, err := b.PublishBatch("x", items); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatch("x", items); err != nil {
		t.Fatal(err)
	}
	qs, err = b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.Published != 3 { // m + a + b, replay fully deduped
		t.Fatalf("queue saw %d publishes after batch replay, want 3", qs.Published)
	}
}

func TestReconnectBudgetExhaustedFailsClosed(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	var dials atomic.Int32
	c := dialResilientTest(t, s, b, func(cfg *ReconnectConfig) {
		inner := cfg.Dialer
		cfg.MaxAttempts = 2
		cfg.Dialer = func(addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return nil, errors.New("network unreachable")
			}
			return inner(addr)
		}
	})
	declareTopology(t, broker)
	b.killCurrent()
	// The conn is connected until its read loop sees the dead transport.
	deadline := time.Now().Add(5 * time.Second)
	for connErr(c) == nil {
		if time.Now().After(deadline) {
			t.Fatal("conn did not give up after its reconnect budget")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.WaitConnected(5 * time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitConnected after exhausted budget: %v, want ErrClosed", err)
	}
	if _, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after exhausted budget: %v, want ErrClosed", err)
	}
	if err := connErr(c); err == nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("closing error = %v, want wrapped ErrClosed with attempt context", err)
	}
}

func TestReconnectAndReplayAreFast(t *testing.T) {
	broker, s := startServer(t)
	b := &bouncer{}
	c := dialResilientTest(t, s, b, nil)
	declareTopology(t, broker)
	rc, err := c.Consume("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Cancel() }()

	// Fault-free local reconnect: the acceptance bar is <10ms for
	// reconnect + consumer re-attachment; assert a loose multiple to
	// stay robust on loaded CI machines (the benchmark below measures
	// the real figure).
	start := time.Now()
	b.killCurrent()
	waitReconnects(t, c, 1)
	elapsed := time.Since(start)
	t.Logf("reconnect + re-attach of 1 consumer took %v", elapsed)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("reconnect took %v, want well under 500ms", elapsed)
	}
}

func BenchmarkReconnectReattach(b *testing.B) {
	broker := NewBroker()
	s, err := NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	defer s.Close()
	bn := &bouncer{}
	c, err := DialResilient(s.Addr(), ReconnectConfig{
		Dialer:      bn.dial,
		BackoffBase: time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	declareTopology(b, broker)
	if _, err := c.Consume("q", 4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.killCurrent()
		waitReconnects(b, c, uint64(i+1))
	}
}

func TestRecoveryCycleLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)
	for round := 0; round < 3; round++ {
		broker := NewBroker()
		s, err := NewServer(broker, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := &bouncer{}
		c, err := DialResilient(s.Addr(), ReconnectConfig{
			Dialer:      b.dial,
			BackoffBase: time.Millisecond,
			Seed:        int64(round + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		declareTopology(t, broker)
		rc, err := c.Consume("q", 4)
		if err != nil {
			t.Fatal(err)
		}
		// Two bounce cycles per round: transports, read loops and
		// reconnect loops must all be reaped.
		for cycle := 0; cycle < 2; cycle++ {
			b.killCurrent()
			waitReconnects(t, c, uint64(cycle+1))
			if _, err := c.PublishAt("x", "k", nil, []byte("m"), time.Now()); err != nil {
				t.Fatal(err)
			}
			select {
			case d := <-rc.C():
				if err := rc.Ack(d.Tag); err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no delivery after bounce")
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		broker.Close()
	}
	after := stableGoroutines(t)
	if after > before+3 {
		t.Fatalf("recovery cycles leaked goroutines: %d -> %d", before, after)
	}
}
