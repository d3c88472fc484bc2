package mq

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"time"
)

// Resilient client machinery: the paper's deployment lesson is that
// mobile links die constantly, so the middleware client must treat a
// TCP session as disposable. DialResilient wraps the Conn with:
//
//   - automatic reconnect with exponential backoff + seeded jitter
//     and a bounded attempt budget per outage;
//   - consumer re-attachment: subscriptions are re-issued on the new
//     session and resume from the broker-side buffer (the dead
//     session's unacked deliveries are requeued server-side);
//   - publish retry with per-message idempotency tokens the broker
//     dedupes, so a publish whose response was lost in flight can be
//     re-sent without double-delivering.

// ReconnectConfig tunes a resilient connection. The zero value gets
// sane defaults from applyDefaults.
type ReconnectConfig struct {
	// Dialer opens transports; nil uses a 5s TCP dial. Tests inject
	// fault-wrapped dialers here.
	Dialer func(addr string) (net.Conn, error)
	// MaxAttempts bounds consecutive failed reconnect attempts per
	// outage before the conn fails permanently with ErrClosed.
	// 0 means DefaultMaxAttempts; negative means retry forever.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff
	// between attempts (base, 2*base, 4*base, ... capped at max, each
	// plus up to 50% seeded jitter). The first attempt of an outage
	// is immediate.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter; a fixed seed makes the backoff schedule
	// reproducible. 0 means 1.
	Seed int64
	// PublishRetries bounds how many times one publish is re-sent
	// after transport failures (0 = DefaultPublishRetries).
	PublishRetries int
	// RPCTimeout bounds each request/response exchange; expiry marks
	// the transport dead and triggers recovery — the defense against
	// one-way partitions that black-hole responses
	// (0 = DefaultRPCTimeout).
	RPCTimeout time.Duration
}

// Resilience defaults.
const (
	DefaultMaxAttempts    = 8
	DefaultPublishRetries = 8
	DefaultBackoffBase    = 10 * time.Millisecond
	DefaultBackoffMax     = 2 * time.Second
	DefaultRPCTimeout     = 30 * time.Second
)

func (cfg *ReconnectConfig) applyDefaults() {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PublishRetries == 0 {
		cfg.PublishRetries = DefaultPublishRetries
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultRPCTimeout
	}
}

// ConnStats snapshots a connection's recovery counters.
type ConnStats struct {
	// Reconnects counts completed recoveries (transport replaced and
	// consumers re-attached).
	Reconnects uint64 `json:"reconnects"`
	// PublishRetries counts publish frames re-sent after failures.
	PublishRetries uint64 `json:"publishRetries"`
}

// Stats snapshots the recovery counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Reconnects:     c.reconnects.Load(),
		PublishRetries: c.publishRetries.Load(),
	}
}

// DialResilient connects to a broker server with automatic recovery:
// reconnect + backoff, consumer re-attachment and idempotent publish
// retry. See ReconnectConfig for tuning.
func DialResilient(addr string, cfg ReconnectConfig) (*Conn, error) {
	cfg.applyDefaults()
	return dialConn(addr, &cfg)
}

// WaitConnected blocks until the conn is connected (nil), permanently
// closed (ErrClosed), or the timeout elapses (ErrReconnecting).
// timeout <= 0 waits indefinitely.
func (c *Conn) WaitConnected(timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		c.mu.Lock()
		switch c.state {
		case stateClosed:
			c.mu.Unlock()
			return ErrClosed
		case stateConnected:
			c.mu.Unlock()
			return nil
		}
		ch := c.connected
		c.mu.Unlock()
		select {
		case <-ch:
		case <-c.closedCh:
			return ErrClosed
		case <-deadline:
			return ErrReconnecting
		}
	}
}

// mintToken issues a process-unique publish idempotency token.
func (c *Conn) mintToken() string {
	return c.tokenPrefix + "-" + strconv.FormatUint(c.tokenSeq.Add(1), 36)
}

// retryablePublishErr reports whether a failed publish may be
// re-sent: transport-level failures are; broker rejections and a
// permanently closed conn are not.
func retryablePublishErr(err error) bool {
	var be *BrokerError
	if errors.As(err, &be) {
		return false
	}
	return !errors.Is(err, ErrClosed)
}

// publishRPC sends a publish frame. Single-shot conns pass straight
// through; resilient conns stamp an idempotency token, wait out
// reconnects and re-send up to PublishRetries times. The token stays
// constant across retries, so the broker's dedup window guarantees
// at-most-once enqueue even when a response was lost in flight.
func (c *Conn) publishRPC(f *frame) (*frame, error) {
	// Honor broker backpressure before putting more on the wire. Only
	// publishes gate — acks and cancels must always flow, or a paused
	// queue could never drain.
	c.flowGate()
	if c.cfg == nil {
		return c.rpc(f)
	}
	if f.Op == opPublish && f.Token == "" {
		f.Token = c.mintToken()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.publishRetries.Add(1)
		}
		if err := c.WaitConnected(0); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
			return nil, err
		}
		resp, err := c.rpc(f)
		if err == nil {
			return resp, nil
		}
		if !retryablePublishErr(err) {
			return nil, err
		}
		lastErr = err
		if attempt >= c.cfg.PublishRetries {
			return nil, fmt.Errorf("mq: publish failed after %d retries: %w", attempt, lastErr)
		}
	}
}

// backoffDelay computes the wait before reconnect attempt n (0-based)
// of an outage: immediate first try, then exponential with jitter.
func backoffDelay(cfg *ReconnectConfig, rng *rand.Rand, attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := cfg.BackoffBase << (attempt - 1)
	if d <= 0 || d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// reconnectLoop drives one outage to resolution: dial with backoff,
// re-attach consumers over the fresh transport, then promote it to
// connected. Exhausting the attempt budget (or Close)
// fails the conn permanently.
func (c *Conn) reconnectLoop(cause error) {
	defer c.wg.Done()
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	dial := c.cfg.Dialer
	if dial == nil {
		dial = defaultDialer
	}
	attempts := 0
	var lastErr error = cause
	for {
		if delay := backoffDelay(c.cfg, rng, attempts); delay > 0 {
			select {
			case <-time.After(delay):
			case <-c.closedCh:
				return
			}
		} else {
			select {
			case <-c.closedCh:
				return
			default:
			}
		}
		attempts++
		nc, err := dial(c.addr)
		if err == nil {
			tr := c.installTransport(nc)
			if tr == nil {
				_ = nc.Close()
				return
			}
			err = c.reattachConsumers(tr)
			if err == nil {
				c.mu.Lock()
				if c.state == stateClosed {
					c.mu.Unlock()
					_ = nc.Close()
					return
				}
				c.state = stateConnected
				close(c.connected)
				c.mu.Unlock()
				c.reconnects.Add(1)
				return
			}
			_ = nc.Close()
			if errors.Is(err, ErrClosed) {
				return
			}
		}
		lastErr = err
		if c.cfg.MaxAttempts > 0 && attempts >= c.cfg.MaxAttempts {
			c.mu.Lock()
			if c.state == stateClosed {
				c.mu.Unlock()
				return
			}
			c.failAllLocked(fmt.Errorf("mq: reconnect gave up after %d attempts (%v): %w", attempts, lastErr, ErrClosed)) // unlocks
			return
		}
	}
}

// reattachConsumers re-issues every subscription on a fresh transport.
// The conn stays in the reconnecting state throughout, so only this
// goroutine issues RPCs on tr.
func (c *Conn) reattachConsumers(tr *transport) error {
	c.mu.Lock()
	rcs := make([]*RemoteConsumer, 0, len(c.consumerSet))
	for rc := range c.consumerSet {
		rcs = append(rcs, rc)
	}
	// Ids from the dead session are meaningless on the new one; the
	// unknown-consumer nack path covers any delivery racing the remap.
	c.consumers = make(map[uint64]*RemoteConsumer)
	c.mu.Unlock()
	// Deterministic re-attach order (map iteration is not).
	sort.Slice(rcs, func(i, j int) bool { return rcs[i].id.Load() < rcs[j].id.Load() })

	for _, rc := range rcs {
		resp, err := c.transportRPC(tr, &frame{Op: opConsume, Queue: rc.queue, Prefetch: rc.prefetch})
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.attachConsumerLocked(resp.ConsumerID, rc)
		c.mu.Unlock()
	}
	return nil
}
