package cluster

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// ErrAckTimeout reports a write that is durable on the leader but was
// not acknowledged by the required follower quorum in time. The caller
// must treat the write as unacknowledged: after a failover it may or
// may not survive, exactly like a write whose fsync never returned.
var ErrAckTimeout = errors.New("cluster: follower ack quorum timed out")

// Batch bounds: a fetch asking for more (or for nothing in particular)
// gets at most this many records or bytes in one batch.
const (
	maxBatchRecords = 1024
	maxBatchBytes   = 1 << 20
)

// ackTimeout bounds how long a write waits for its follower quorum.
const ackTimeout = 5 * time.Second

// leaderOptions configure newLeader.
type leaderOptions struct {
	// SyncFollowers is how many followers must acknowledge a record
	// before its commit ticket resolves. Node sets majority-1 of its
	// group: 0 for a one-member group, whose writes are acknowledged on
	// local fsync alone.
	SyncFollowers int
	// AckTimeout bounds the quorum wait (0 = ackTimeout).
	AckTimeout time.Duration
	// Heartbeat caps a long-polled fetch: a caught-up follower gets an
	// empty batch after at most this long, carrying the leader's
	// durable LSN as a liveness signal.
	Heartbeat time.Duration
	// Term is the election term this leader serves at (at least 1).
	Term uint64
	// OnDepose, when non-nil, fires once when the leader learns of a
	// higher term and fences itself (the election node uses it to move
	// its state machine to Fenced).
	OnDepose func(newTerm uint64)
	// AckRetention expires a follower's ack/truncation-bound entry
	// after this long without contact, so a dead follower eventually
	// stops pinning WAL history (it rejoins via snapshot transfer
	// instead). 0 retains every follower's bound forever.
	AckRetention time.Duration
	// SnapChunkBytes sizes one snapshot-transfer chunk (default 256
	// KiB).
	SnapChunkBytes int
	// Metrics receives replication counters when non-nil.
	Metrics *Metrics
}

// leader is an elected node's write side: its Local's commit log
// rewired so that a ticket's Wait means "fsynced locally AND
// acknowledged by the follower quorum", the ack tracker behind that
// quorum, and the replication sessions Node.serveConn hands it.
type leader struct {
	local *storage.Local
	opt   leaderOptions
	acks  *ackTracker

	// term and fenced implement write fencing: once a higher term is
	// observed (a successor was elected, or this leader's own lease
	// expired), fenced flips and every subsequent commit-log append is
	// rejected with ErrStaleTerm — the mutation is never applied.
	term     atomic.Uint64
	fenced   atomic.Bool
	deposeMu sync.Mutex // serializes depose so OnDepose fires once
	deposed  bool
	// hintName/hintAddr point at the successor when known, so fencing
	// rejections can carry a redirect hint.
	hintName, hintAddr string

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live sessions, torn down on depose and close
	closed bool
}

// newLeader installs a replicating leader on local, which must be
// opened with NoAttach (its commit log slot is free) and with a WAL
// (the log is what gets shipped). The WAL must run a syncing fsync
// policy: under FsyncNone the durable LSN never advances on the append
// path, so nothing ships and followers starve. The follower set is
// open: any follower that fetches is counted toward quorums and the
// truncation bound.
func newLeader(local *storage.Local, opt leaderOptions) (*leader, error) {
	if local.WAL() == nil {
		return nil, errors.New("cluster: leader requires a WAL-backed engine")
	}
	if opt.AckTimeout <= 0 {
		opt.AckTimeout = ackTimeout
	}
	if opt.SnapChunkBytes <= 0 {
		opt.SnapChunkBytes = 256 << 10
	}
	l := &leader{
		local: local,
		opt:   opt,
		acks:  newAckTracker(opt.AckRetention),
		conns: map[net.Conn]struct{}{},
	}
	l.term.Store(opt.Term)
	local.Store().SetCommitLog(&leaderCommitLog{l: l})
	// Checkpoints must not truncate history a known follower has yet
	// to acknowledge; with no followers the bound is "no constraint".
	local.SetTruncateBound(func() uint64 { return l.acks.minAcked() })
	return l, nil
}

// freshContacts counts followers heard from within the window — the
// leader-side half of the lease: a leader that cannot count a quorum
// of fresh follower contacts must assume a successor is being elected
// and fence itself.
func (l *leader) freshContacts(window time.Duration) int {
	return l.acks.contactsSince(time.Now().Add(-window))
}

// depose fences the leader at newTerm: every write from here on is
// rejected with ErrStaleTerm, replication sessions are torn down, and
// OnDepose fires exactly once. successor names the new leader when
// known ("" when the leader is deposing itself on lease expiry).
// Fencing is terminal for this in-process leader — rejoining the
// group means restarting the node, which bootstraps from the new
// leader (snapshot transfer discards any unacknowledged tail).
func (l *leader) depose(newTerm uint64, successor, successorAddr string) {
	l.deposeMu.Lock()
	if newTerm > l.term.Load() {
		l.term.Store(newTerm)
	}
	if successor != "" {
		l.hintName, l.hintAddr = successor, successorAddr
	}
	already := l.deposed
	l.deposed = true
	l.fenced.Store(true)
	l.deposeMu.Unlock()
	if already {
		return
	}
	// Drop replication sessions: followers must renegotiate against
	// the new leader, not keep tailing a fenced one.
	l.mu.Lock()
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	if l.opt.OnDepose != nil {
		l.opt.OnDepose(newTerm)
	}
}

// hint returns the successor redirect, if known.
func (l *leader) hint() (name, addr string) {
	l.deposeMu.Lock()
	defer l.deposeMu.Unlock()
	return l.hintName, l.hintAddr
}

// close ends every replication session and wakes the writes still
// waiting for their quorum (they fail with ErrAckTimeout). The Local
// stays open: its owner closes it.
func (l *leader) close() {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	l.acks.close()
}

// leaderCommitLog is the replication-aware commit log: every mutation
// becomes a WAL record whose ticket also waits for the follower-ack
// quorum.
type leaderCommitLog struct{ l *leader }

// Log implements docstore.CommitLog. A fenced leader rejects here —
// before the mutation is applied or logged — so a deposed leader can
// never acknowledge (or even locally persist) a write the successor's
// history lacks.
func (cl *leaderCommitLog) Log(m *docstore.Mutation) (docstore.CommitTicket, error) {
	if cl.l.fenced.Load() {
		if mtr := cl.l.opt.Metrics; mtr != nil {
			mtr.FencingRejects.Inc()
		}
		name, addr := cl.l.hint()
		return nil, &NotLeaderError{Leader: name, Addr: addr, Err: ErrStaleTerm}
	}
	payload, err := docstore.EncodeMutation(m)
	if err != nil {
		return nil, err
	}
	tk, err := cl.l.local.WAL().Append(byte(m.Op), payload)
	if err != nil {
		return nil, err
	}
	return &replTicket{l: cl.l, walTk: tk}, nil
}

// replTicket resolves when the record is durable locally and, unless
// the quorum is 0, acknowledged by the follower quorum.
type replTicket struct {
	l     *leader
	walTk *wal.Ticket
}

// LSN exposes the underlying WAL position, so the docstore ingest
// observer carries the right LSN into derived views (the series
// engine) on replicated leaders too.
func (t *replTicket) LSN() uint64 { return t.walTk.LSN() }

// Wait implements docstore.CommitTicket.
func (t *replTicket) Wait() error {
	if err := t.walTk.Wait(); err != nil {
		return err
	}
	// A fence that landed between Log and here means the record is in
	// the local WAL but may never ship: report it unacknowledged, like
	// an ack timeout (after failover it may or may not survive).
	if t.l.fenced.Load() {
		if mtr := t.l.opt.Metrics; mtr != nil {
			mtr.FencingRejects.Inc()
		}
		name, addr := t.l.hint()
		return &NotLeaderError{Leader: name, Addr: addr, Err: ErrStaleTerm}
	}
	need := t.l.opt.SyncFollowers
	if need <= 0 {
		return nil
	}
	if err := t.l.acks.waitQuorum(t.walTk.LSN(), need, t.l.opt.AckTimeout); err != nil {
		if t.l.opt.Metrics != nil {
			t.l.opt.Metrics.AckTimeouts.Inc()
		}
		return err
	}
	return nil
}

// ackTracker tracks each follower's acknowledged (durably applied)
// LSN and last contact time, and wakes commit waiters as acks arrive.
// With a retention window, followers silent past it are expired: their
// entries stop pinning the truncation bound (they will rejoin via
// snapshot transfer) and stop counting toward anything.
type ackTracker struct {
	retention time.Duration
	mu        sync.Mutex
	cond      *sync.Cond
	acked     map[string]uint64
	contact   map[string]time.Time
	closed    bool
}

func newAckTracker(retention time.Duration) *ackTracker {
	a := &ackTracker{
		retention: retention,
		acked:     map[string]uint64{},
		contact:   map[string]time.Time{},
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// update raises a follower's acknowledged LSN (never lowers it),
// refreshes its contact time and wakes quorum waiters.
func (a *ackTracker) update(name string, lsn uint64) {
	a.mu.Lock()
	a.contact[name] = time.Now()
	if lsn > a.acked[name] {
		a.acked[name] = lsn
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// expireLocked drops followers whose last contact precedes the
// retention window. Caller holds mu.
func (a *ackTracker) expireLocked() {
	if a.retention <= 0 {
		return
	}
	cutoff := time.Now().Add(-a.retention)
	for name, at := range a.contact {
		if at.Before(cutoff) {
			delete(a.contact, name)
			delete(a.acked, name)
		}
	}
}

// contactsSince counts followers heard from at or after t.
func (a *ackTracker) contactsSince(t time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, at := range a.contact {
		if !at.Before(t) {
			n++
		}
	}
	return n
}

// minAcked is the truncation bound: the slowest known follower's
// acknowledged LSN, or ^uint64(0) ("no constraint") with no followers.
func (a *ackTracker) minAcked() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expireLocked()
	min := ^uint64(0)
	for _, lsn := range a.acked {
		if lsn < min {
			min = lsn
		}
	}
	return min
}

// quorumLSNLocked is the highest LSN acknowledged by at least need
// followers.
func (a *ackTracker) quorumLSNLocked(need int) uint64 {
	a.expireLocked()
	if need <= 0 || len(a.acked) < need {
		return 0
	}
	lsns := make([]uint64, 0, len(a.acked))
	for _, lsn := range a.acked {
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns[need-1]
}

// waitQuorum blocks until need followers have acknowledged lsn, the
// timeout elapses, or the tracker closes.
func (a *ackTracker) waitQuorum(lsn uint64, need int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, a.cond.Broadcast)
	defer timer.Stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.quorumLSNLocked(need) < lsn {
		if a.closed {
			return ErrAckTimeout
		}
		if !time.Now().Before(deadline) {
			return ErrAckTimeout
		}
		a.cond.Wait()
	}
	return nil
}

func (a *ackTracker) close() {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
}
