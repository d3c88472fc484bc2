package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/storage"
)

// ErrNotLeader is returned for writes against a node that does not
// lead its group. Such a node serves reads (possibly stale by its
// replication lag) and rejects every mutation.
var ErrNotLeader = errors.New("cluster: not the leader")

// followerOptions configure startFollower.
type followerOptions struct {
	// Name is the follower's stable identity; the leader keys ack
	// tracking by it across reconnects.
	Name string
	// Addr is the leader's replication address.
	Addr string
	// Dial opens a replication connection.
	Dial func(addr string) (net.Conn, error)
	// RetryInterval is the pause between replication-session attempts
	// after a failure.
	RetryInterval time.Duration
	// Term is the election term the follower believes current (at
	// least 1). Fetches are stamped with it; the leader fences itself
	// when it sees a higher one.
	Term uint64
	// OnTerm, when non-nil, fires whenever the follower observes a
	// higher term on the wire (the election node persists it).
	OnTerm func(term uint64)
	// OnSnapshot, when non-nil, fires after a completed snapshot
	// bootstrap replaced the local history (the election node clears
	// its divergence marker here).
	OnSnapshot func(lsn uint64)
	// ForceSnapshot makes the first session bootstrap from a leader
	// snapshot unconditionally, discarding the local log — required
	// when this node previously led (its unacknowledged tail may
	// diverge from the history that won).
	ForceSnapshot bool
	// WrapSnapshot, when non-nil, wraps the snapshot staging file's
	// write path — the fault-injection seam the chaos tests use to
	// kill a transfer after a byte budget and prove resume-by-offset.
	WrapSnapshot func(w io.Writer) io.Writer
	// Logf receives diagnostic lines (corruption localization,
	// snapshot bootstrap progress).
	Logf func(format string, args ...any)
	// Metrics receives follower counters when non-nil.
	Metrics *Metrics
}

// follower is a following node's replication loop: it tails the
// leader's WAL over the replication protocol and applies every record
// to the node's Local (memory and WAL both, so a restart recovers
// locally and resumes where it stopped). The node serves reads from
// that Local.
//
// The follower's WAL assigns its own LSNs, but because it appends
// exactly the leader's records in leader order starting from the same
// empty log, the numbering coincides — a shipped record's local LSN is
// asserted equal to its leader LSN, so any divergence is caught the
// moment it happens rather than at failover.
type follower struct {
	local *storage.Local
	opt   followerOptions

	applied atomic.Uint64

	// term is the highest election term observed; fetches carry it.
	term atomic.Uint64
	// contactNanos is the wall time (unix nanos) of the last successful
	// leader exchange — the follower half of the lease. An election
	// node reads it to decide the leader is gone.
	contactNanos atomic.Int64
	// needSnap latches when the leader reports the log cannot serve
	// our position (truncated or diverged); the next session runs a
	// snapshot bootstrap before tailing.
	needSnap atomic.Bool

	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	conn net.Conn
}

// startFollower begins replicating from the leader at opts.Addr into
// local, which must be WAL-backed and opened with NoAttach (the
// follower appends shipped records itself; attaching would re-log
// every applied mutation). The replication loop retries failed
// sessions until stop.
func startFollower(local *storage.Local, opts followerOptions) (*follower, error) {
	if local.WAL() == nil {
		return nil, errors.New("cluster: follower requires a WAL-backed engine")
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{
		local:  local,
		opt:    opts,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	f.term.Store(opts.Term)
	f.contactNanos.Store(time.Now().UnixNano())
	f.needSnap.Store(opts.ForceSnapshot)
	// Local recovery already replayed this WAL into the store; resume
	// fetching right after the last locally durable record.
	f.applied.Store(local.WAL().LastLSN())
	go f.run(ctx)
	return f, nil
}

// lastContact is the wall time of the last successful leader exchange.
func (f *follower) lastContact() time.Time {
	return time.Unix(0, f.contactNanos.Load())
}

// observeTerm adopts a higher term seen on the wire and notifies the
// election node.
func (f *follower) observeTerm(term uint64) {
	for {
		cur := f.term.Load()
		if term <= cur {
			return
		}
		if f.term.CompareAndSwap(cur, term) {
			if f.opt.OnTerm != nil {
				f.opt.OnTerm(term)
			}
			return
		}
	}
}

// stop ends replication. Safe to call twice.
func (f *follower) stop() {
	f.cancel()
	f.mu.Lock()
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// run is the replication loop: dial, stream, and on any failure retry
// a whole session (the fetch position is durable, so a re-shipped
// record is skipped idempotently). When the leader has reported our
// position unservable from the log, a session starts with a snapshot
// bootstrap instead of a fetch stream.
func (f *follower) run(ctx context.Context) {
	defer close(f.done)
	first := true
	for ctx.Err() == nil {
		if !first {
			if f.opt.Metrics != nil {
				f.opt.Metrics.Reconnects.Inc()
			}
			select {
			case <-time.After(f.opt.RetryInterval):
			case <-ctx.Done():
				return
			}
		}
		first = false
		if f.needSnap.Load() {
			if err := f.bootstrapSnapshot(ctx); err != nil {
				if ctx.Err() == nil {
					f.opt.Logf("cluster: follower %s: snapshot bootstrap: %v", f.opt.Name, err)
				}
				continue
			}
			f.needSnap.Store(false)
		}
		_ = f.session(ctx)
	}
}

// session runs one replication connection until it fails or the
// follower stops.
func (f *follower) session(ctx context.Context) error {
	nc, err := f.opt.Dial(f.opt.Addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.conn = nc
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		_ = nc.Close()
	}()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	r := bufio.NewReader(nc)
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{Op: mq.ReplOpHello, Follower: f.opt.Name}); err != nil {
		return err
	}
	hello, _, err := mq.ReadReplFrame(r)
	if err != nil {
		return err
	}
	switch hello.Op {
	case mq.ReplOpHello:
		f.observeTerm(hello.Term)
	case mq.ReplOpError:
		return f.onLeaderError(hello)
	default:
		return fmt.Errorf("cluster: leader greeted with %q", hello.Op)
	}
	for ctx.Err() == nil {
		applied := f.applied.Load()
		if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
			Op:         mq.ReplOpFetch,
			From:       applied + 1,
			AppliedLSN: applied,
			Term:       f.term.Load(),
		}); err != nil {
			return err
		}
		batch, _, err := mq.ReadReplFrame(r)
		if err != nil {
			return err
		}
		switch batch.Op {
		case mq.ReplOpBatch:
		case mq.ReplOpError:
			return f.onLeaderError(batch)
		default:
			return fmt.Errorf("cluster: unexpected frame %q", batch.Op)
		}
		// Any batch — even an empty heartbeat — renews the follower's
		// view of the leader lease.
		f.contactNanos.Store(time.Now().UnixNano())
		f.observeTerm(batch.Term)
		if err := f.apply(batch.Records); err != nil {
			return err
		}
		if f.opt.Metrics != nil && batch.LeaderLSN >= f.applied.Load() {
			f.opt.Metrics.FollowerLag.With(f.opt.Name).Set(float64(batch.LeaderLSN - f.applied.Load()))
		}
	}
	return ctx.Err()
}

// onLeaderError reacts to a typed leader error frame: truncated and
// diverged positions latch a snapshot bootstrap for the next session,
// corruption is localized in the logs and counted, stale terms are
// adopted. The session always ends; run decides what the next one
// does.
func (f *follower) onLeaderError(frame *mq.ReplFrame) error {
	switch frame.Code {
	case mq.ReplErrTruncated:
		f.needSnap.Store(true)
		f.opt.Logf("cluster: follower %s: leader truncated past lsn %d (checkpoint covers %d); bootstrapping from snapshot",
			f.opt.Name, f.applied.Load(), frame.SnapLSN)
	case mq.ReplErrDiverged:
		f.needSnap.Store(true)
		f.opt.Logf("cluster: follower %s: local log at %d diverged from leader (head %d); bootstrapping from snapshot",
			f.opt.Name, f.applied.Load(), frame.LeaderLSN)
	case mq.ReplErrCorrupt:
		if f.opt.Metrics != nil {
			f.opt.Metrics.FollowerCorruption.Inc()
		}
		f.opt.Logf("cluster: follower %s: leader WAL corrupt: segment %s offset %d: %s",
			f.opt.Name, frame.Segment, frame.Offset, frame.Error)
	case mq.ReplErrStaleTerm:
		f.observeTerm(frame.Term)
	case mq.ReplErrNotLeader:
		f.observeTerm(frame.Term)
	}
	return fmt.Errorf("cluster: leader error [%s]: %s", frame.Code, frame.Error)
}

// apply applies one shipped batch: decode each record, apply it to the
// store, append it to the local WAL, then wait out the last ticket
// (the group commit flushes the whole run) before advancing the
// durable applied position.
func (f *follower) apply(records []mq.ReplRecord) error {
	if len(records) == 0 {
		return nil
	}
	w := f.local.WAL()
	store := f.local.Store()
	var lastTk interface{ Wait() error }
	var lastLSN uint64
	applied := f.applied.Load()
	for _, rec := range records {
		if rec.LSN <= applied {
			continue // idempotent re-ship after a reconnect
		}
		if rec.LSN != applied+1 {
			return fmt.Errorf("cluster: gap in shipped log: have %d, got %d", applied, rec.LSN)
		}
		// ApplyRecord carries the leader's LSN into the ingest
		// observer, so a follower's series view stays watermarked in
		// step with its store.
		if err := store.ApplyRecord(rec.LSN, rec.Type, rec.Payload); err != nil {
			return err
		}
		tk, err := w.Append(rec.Type, rec.Payload)
		if err != nil {
			return err
		}
		if tk.LSN() != rec.LSN {
			return fmt.Errorf("cluster: local lsn %d diverged from leader lsn %d", tk.LSN(), rec.LSN)
		}
		lastTk, lastLSN = tk, rec.LSN
		applied = rec.LSN
	}
	if lastTk == nil {
		return nil
	}
	if err := lastTk.Wait(); err != nil {
		return err
	}
	f.applied.Store(lastLSN)
	if f.opt.Metrics != nil {
		f.opt.Metrics.AppliedRecords.Add(uint64(len(records)))
	}
	return nil
}
