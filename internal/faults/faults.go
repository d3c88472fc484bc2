// Package faults is a deterministic fault-injection layer for chaos
// testing the middleware's network and persistence paths. It wraps
// net.Conn / net.Listener with seeded fault schedules (drop, reset,
// delay, partial write, byte corruption, one-way partition) and
// io.Writer with torn-write budgets, so every failure mode the Paris
// deployment exhibited — flaky radios, mid-upload disconnects, dead
// links that black-hole traffic — can be replayed as a regression
// test that is reproducible from its seed.
//
// Determinism: the injector derives one *rand.Rand per wrapped
// connection from (seed, connection ordinal). Writes on a connection
// are serialized by the caller (the mq client holds a write mutex),
// so the per-connection fault schedule is a pure function of the seed
// and the write sequence.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a failure produced by the injector rather than
// the real network or disk.
var ErrInjected = errors.New("faults: injected failure")

// ErrReset marks an injected connection reset.
var ErrReset = errors.New("faults: injected connection reset")

// Plan is a fault schedule. All probabilities are per write operation
// and drawn from the injector's seeded source; zero values disable
// the corresponding fault, so the zero Plan is a transparent wrapper.
type Plan struct {
	// DropProb silently swallows a write (the bytes never reach the
	// peer, but the caller sees success) — a lossy link.
	DropProb float64
	// DelayProb stalls a write by Delay before sending it.
	DelayProb float64
	Delay     time.Duration
	// CorruptProb flips one byte of the written payload.
	CorruptProb float64
	// PartialProb writes only a prefix of the payload, then kills the
	// connection — a mid-frame teardown.
	PartialProb float64
	// ResetEvery kills the connection on every Nth write (0 = never).
	ResetEvery int
	// ResetProb kills the connection with this per-write probability.
	ResetProb float64
	// PartitionAfterWrites turns the connection into a black hole
	// after N writes: subsequent writes are swallowed and reads hang
	// until the connection is closed — the one-way partition where
	// requests arrive but responses never come back (0 = never).
	PartitionAfterWrites int
	// BlockReads hangs every read until the connection is closed — a
	// one-way partition from the first byte.
	BlockReads bool
	// BlockReadsAfterWrites black-holes the read direction once the
	// connection has performed N writes: requests keep reaching the
	// peer but responses are swallowed — the lost-response partition
	// that exercises idempotent publish retry (0 = never).
	BlockReadsAfterWrites int
	// Sleep implements delays; nil uses time.Sleep. Tests running
	// under a virtual clock can substitute their own.
	Sleep func(time.Duration)
}

// Counts aggregates the faults an injector has fired, for test
// assertions ("this run really did reset the link 3 times").
type Counts struct {
	Conns       uint64
	Drops       uint64
	Delays      uint64
	Corruptions uint64
	Partials    uint64
	Resets      uint64
	Partitions  uint64
}

// Injector wraps connections with a shared Plan and a seeded fault
// schedule.
type Injector struct {
	plan Plan
	seed int64

	ordinal atomic.Uint64

	drops       atomic.Uint64
	delays      atomic.Uint64
	corruptions atomic.Uint64
	partials    atomic.Uint64
	resets      atomic.Uint64
	partitions  atomic.Uint64
}

// New builds an injector whose fault schedule is fully determined by
// seed and plan.
func New(seed int64, plan Plan) *Injector {
	return &Injector{plan: plan, seed: seed}
}

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Conns:       in.ordinal.Load(),
		Drops:       in.drops.Load(),
		Delays:      in.delays.Load(),
		Corruptions: in.corruptions.Load(),
		Partials:    in.partials.Load(),
		Resets:      in.resets.Load(),
		Partitions:  in.partitions.Load(),
	}
}

// sleep applies the plan's sleeper.
func (in *Injector) sleep(d time.Duration) {
	if in.plan.Sleep != nil {
		in.plan.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Conn wraps nc with this injector's fault schedule. Each wrapped
// connection draws from its own rand stream seeded by (seed, ordinal),
// so connection i always sees the same fault sequence for the same
// write sequence.
func (in *Injector) Conn(nc net.Conn) *Conn {
	ord := in.ordinal.Add(1)
	return &Conn{
		Conn:   nc,
		in:     in,
		rng:    rand.New(rand.NewSource(in.seed*1_000_003 + int64(ord))),
		closed: make(chan struct{}),
	}
}

// Listener wraps l so every accepted connection is fault-injected.
func (in *Injector) Listener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

// Dialer wraps a dial function so every dialed connection is
// fault-injected. base nil uses a plain TCP dial.
func (in *Injector) Dialer(base func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if base == nil {
		base = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return func(addr string) (net.Conn, error) {
		nc, err := base(addr)
		if err != nil {
			return nil, err
		}
		return in.Conn(nc), nil
	}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(nc), nil
}

// Conn is a fault-injected net.Conn.
type Conn struct {
	net.Conn
	in *Injector

	mu          sync.Mutex
	rng         *rand.Rand
	writes      int
	partitioned bool
	readDark    bool

	closeOnce sync.Once
	closed    chan struct{}
}

// faultDecision is one write's drawn schedule, decided under the lock
// so the rand stream ordering is stable.
type faultDecision struct {
	partitioned bool
	reset       bool
	delay       bool
	drop        bool
	partial     int // bytes to write before tearing down; -1 = no partial
	corrupt     int // byte index to flip; -1 = no corruption
}

func (c *Conn) decide(n int) faultDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &c.in.plan
	c.writes++
	if p.PartitionAfterWrites > 0 && !c.partitioned && c.writes > p.PartitionAfterWrites {
		c.partitioned = true
		c.in.partitions.Add(1)
	}
	d := faultDecision{partitioned: c.partitioned, partial: -1, corrupt: -1}
	if d.partitioned {
		return d
	}
	// Draw in a fixed order so the schedule depends only on the seed
	// and the write sequence.
	if p.ResetEvery > 0 && c.writes%p.ResetEvery == 0 {
		d.reset = true
	}
	if p.ResetProb > 0 && c.rng.Float64() < p.ResetProb {
		d.reset = true
	}
	if p.DelayProb > 0 && c.rng.Float64() < p.DelayProb {
		d.delay = true
	}
	if p.DropProb > 0 && c.rng.Float64() < p.DropProb {
		d.drop = true
	}
	if p.PartialProb > 0 && c.rng.Float64() < p.PartialProb && n > 1 {
		d.partial = 1 + c.rng.Intn(n-1)
	}
	if p.CorruptProb > 0 && c.rng.Float64() < p.CorruptProb && n > 0 {
		d.corrupt = c.rng.Intn(n)
	}
	return d
}

// Write applies the drawn fault, if any, then forwards to the wrapped
// connection.
func (c *Conn) Write(b []byte) (int, error) {
	d := c.decide(len(b))
	switch {
	case d.partitioned:
		// Black hole: accept the bytes, deliver nothing.
		return len(b), nil
	case d.reset:
		c.in.resets.Add(1)
		_ = c.Close()
		return 0, ErrReset
	}
	if d.delay {
		c.in.delays.Add(1)
		c.in.sleep(c.in.plan.Delay)
	}
	switch {
	case d.drop:
		c.in.drops.Add(1)
		return len(b), nil
	case d.partial >= 0:
		c.in.partials.Add(1)
		n, err := c.Conn.Write(b[:d.partial])
		_ = c.Close()
		if err != nil {
			return n, err
		}
		return n, ErrReset
	case d.corrupt >= 0:
		c.in.corruptions.Add(1)
		mut := make([]byte, len(b))
		copy(mut, b)
		mut[d.corrupt] ^= 0xA5
		return c.Conn.Write(mut)
	}
	return c.Conn.Write(b)
}

// Read forwards to the wrapped connection unless the plan partitions
// the read direction, in which case it hangs until Close.
func (c *Conn) Read(b []byte) (int, error) {
	if c.in.plan.BlockReads {
		<-c.closed
		return 0, ErrReset
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	part := c.partitioned
	if !part && c.in.plan.BlockReadsAfterWrites > 0 && c.writes >= c.in.plan.BlockReadsAfterWrites {
		part = true
		if !c.readDark {
			c.readDark = true
			c.in.partitions.Add(1)
		}
	}
	c.mu.Unlock()
	if part {
		// The write side went dark mid-session (or the read direction
		// did); swallow whatever was in flight and hang like a dead
		// link would.
		<-c.closed
		return 0, ErrReset
	}
	return n, err
}

// Close unblocks partitioned reads and closes the wrapped connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
