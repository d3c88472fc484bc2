package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
)

// ErrNotLeader is returned for writes against a follower that has not
// been promoted. Followers serve reads (possibly stale by their
// replication lag) and reject every mutation.
var ErrNotLeader = errors.New("cluster: not the leader")

// FollowerOptions configure StartFollower.
type FollowerOptions struct {
	// Name is the follower's stable identity; the leader keys ack
	// tracking by it across reconnects. Required.
	Name string
	// Addr is the leader's replication listener address. Required.
	Addr string
	// Shard is the shard number announced in hello (bookkeeping only).
	Shard int
	// Dial overrides the transport (fault injectors, in-process pipes);
	// nil dials plain TCP.
	Dial func(addr string) (net.Conn, error)
	// FetchRecords / FetchBytes bound one requested batch (0 = leader
	// defaults).
	FetchRecords int
	FetchBytes   int
	// RetryInterval is the pause between replication-session attempts
	// after a failure (default 100ms).
	RetryInterval time.Duration
	// Term is the election term the follower believes current (0 on a
	// non-elected, PR 6 style pair — term checks are skipped then).
	// Fetches are stamped with it; the leader fences itself when it
	// sees a higher one.
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
	// snapshot bootstrap progress). Nil logs via the log package.
	Logf func(format string, args ...any)
	// Metrics receives follower counters when non-nil.
	Metrics *Metrics
}

// Follower is a shard replica: it tails the leader's WAL over the
// replication protocol, applies every record to its own Local engine
// (memory and WAL both, so a restart recovers locally and resumes
// where it stopped), serves reads, and can be promoted to writable
// when the leader is lost.
//
// The follower's WAL assigns its own LSNs, but because it appends
// exactly the leader's records in leader order starting from the same
// empty log, the numbering coincides — a shipped record's local LSN is
// asserted equal to its leader LSN, so any divergence is caught the
// moment it happens rather than at failover.
type Follower struct {
	local *storage.Local
	opt   FollowerOptions

	applied  atomic.Uint64
	promoted atomic.Bool

	// term is the highest election term observed; fetches carry it.
	term atomic.Uint64
	// lastContact is the wall time (unix nanos) of the last successful
	// leader exchange — the follower half of the lease. An election
	// node reads it to decide the leader is gone.
	lastContact atomic.Int64
	// needSnap latches when the leader reports the log cannot serve
	// our position (truncated or diverged); the next session runs a
	// snapshot bootstrap before tailing.
	needSnap atomic.Bool

	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	conn net.Conn
}

// StartFollower begins replicating from the leader at opts.Addr into
// local, which must be WAL-backed and opened with NoAttach (the
// follower appends shipped records itself; attaching would re-log
// every applied mutation). The replication loop retries failed
// sessions until Stop or Promote.
func StartFollower(local *storage.Local, opts FollowerOptions) (*Follower, error) {
	if local.WAL() == nil {
		return nil, errors.New("cluster: follower requires a WAL-backed engine")
	}
	if opts.Name == "" || opts.Addr == "" {
		return nil, errors.New("cluster: follower needs a name and a leader address")
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		local:  local,
		opt:    opts,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	f.term.Store(opts.Term)
	f.lastContact.Store(time.Now().UnixNano())
	f.needSnap.Store(opts.ForceSnapshot)
	// Local recovery already replayed this WAL into the store; resume
	// fetching right after the last locally durable record.
	f.applied.Store(local.WAL().LastLSN())
	go f.run(ctx)
	return f, nil
}

// AppliedLSN is the highest leader LSN this follower has durably
// applied.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// Term is the highest election term the follower has observed.
func (f *Follower) Term() uint64 { return f.term.Load() }

// LastContact is the wall time of the last successful leader exchange.
func (f *Follower) LastContact() time.Time {
	return time.Unix(0, f.lastContact.Load())
}

// observeTerm adopts a higher term seen on the wire and notifies the
// election node.
func (f *Follower) observeTerm(term uint64) {
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

// logf writes a diagnostic line.
func (f *Follower) logf(format string, args ...any) {
	if f.opt.Logf != nil {
		f.opt.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Engine returns the follower as a storage.Engine: reads are served
// from the local replica, writes fail with ErrNotLeader until Promote.
func (f *Follower) Engine() storage.Engine { return (*followerEngine)(f) }

// Stop ends replication without promoting. Safe to call twice.
func (f *Follower) Stop() {
	f.cancel()
	f.mu.Lock()
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// Promote ends replication and attaches the local WAL as a plain
// commit log, turning the replica into a writable single-node engine
// that has exactly the acknowledged history: every record the old
// leader's clients were acked (under a sync quorum that includes this
// follower) is in the local log by definition of the ack. Returns the
// now-writable engine.
func (f *Follower) Promote() storage.Engine {
	f.Stop()
	if f.promoted.CompareAndSwap(false, true) {
		docstore.AttachWAL(f.local.Store(), f.local.WAL())
		if f.opt.Metrics != nil {
			f.opt.Metrics.Promotions.Inc()
		}
	}
	return f.Engine()
}

// Close stops replication and closes the local engine.
func (f *Follower) Close() error {
	f.Stop()
	return f.local.Close()
}

// run is the replication loop: dial, stream, and on any failure retry
// a whole session (the fetch position is durable, so a re-shipped
// record is skipped idempotently). When the leader has reported our
// position unservable from the log, a session starts with a snapshot
// bootstrap instead of a fetch stream.
func (f *Follower) run(ctx context.Context) {
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
				continue
			}
			f.needSnap.Store(false)
		}
		_ = f.session(ctx)
	}
}

// session runs one replication connection until it fails or the
// follower stops.
func (f *Follower) session(ctx context.Context) error {
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
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
		Op: mq.ReplOpHello, Shard: f.opt.Shard, Follower: f.opt.Name,
	}); err != nil {
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
			MaxRecords: f.opt.FetchRecords,
			MaxBytes:   f.opt.FetchBytes,
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
		f.lastContact.Store(time.Now().UnixNano())
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
func (f *Follower) onLeaderError(frame *mq.ReplFrame) error {
	switch frame.Code {
	case mq.ReplErrTruncated:
		f.needSnap.Store(true)
		f.logf("cluster: follower %s: leader truncated past lsn %d (checkpoint covers %d); bootstrapping from snapshot",
			f.opt.Name, f.applied.Load(), frame.SnapLSN)
	case mq.ReplErrDiverged:
		f.needSnap.Store(true)
		f.logf("cluster: follower %s: local log at %d diverged from leader (head %d); bootstrapping from snapshot",
			f.opt.Name, f.applied.Load(), frame.LeaderLSN)
	case mq.ReplErrCorrupt:
		if f.opt.Metrics != nil {
			f.opt.Metrics.FollowerCorruption.Inc()
		}
		f.logf("cluster: follower %s: leader WAL corrupt: segment %s offset %d: %s",
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
func (f *Follower) apply(records []mq.ReplRecord) error {
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

// followerEngine exposes the replica through the Engine interface with
// writes gated on promotion.
type followerEngine Follower

func (e *followerEngine) f() *Follower { return (*Follower)(e) }

func (e *followerEngine) writable() bool { return e.f().promoted.Load() }

func (e *followerEngine) Insert(col string, doc storage.Doc) (string, error) {
	if !e.writable() {
		return "", ErrNotLeader
	}
	return e.local.Insert(col, doc)
}

func (e *followerEngine) InsertMany(col string, docs []storage.Doc) ([]string, error) {
	if !e.writable() {
		return nil, ErrNotLeader
	}
	return e.local.InsertMany(col, docs)
}

func (e *followerEngine) Get(col, id string) (storage.Doc, error) {
	return e.local.Get(col, id)
}

func (e *followerEngine) Update(col, id string, fields storage.Doc) error {
	if !e.writable() {
		return ErrNotLeader
	}
	return e.local.Update(col, id, fields)
}

func (e *followerEngine) Unset(col, id string, fields ...string) error {
	if !e.writable() {
		return ErrNotLeader
	}
	return e.local.Unset(col, id, fields...)
}

func (e *followerEngine) Delete(col, id string) error {
	if !e.writable() {
		return ErrNotLeader
	}
	return e.local.Delete(col, id)
}

func (e *followerEngine) DeleteMany(col string, filter storage.Doc) (int, error) {
	if !e.writable() {
		return 0, ErrNotLeader
	}
	return e.local.DeleteMany(col, filter)
}

// Series queries are reads and serve from the replica's series view —
// a follower with -series answers rollup analytics without touching
// the leader.
func (e *followerEngine) SeriesZoneAggregate(ctx context.Context, zone string, from, to time.Time) (series.Agg, bool, error) {
	return e.local.SeriesZoneAggregate(ctx, zone, from, to)
}

func (e *followerEngine) SeriesNoisemap(ctx context.Context, from, to time.Time) (map[string]series.Agg, bool, error) {
	return e.local.SeriesNoisemap(ctx, from, to)
}

func (e *followerEngine) SeriesStats() (series.Stats, bool) {
	return e.local.SeriesStats()
}

func (e *followerEngine) SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error) {
	return e.local.SeriesZoneBuckets(ctx, zone, from, to)
}

func (e *followerEngine) SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error) {
	return e.local.SeriesAllBuckets(ctx, from, to)
}

func (e *followerEngine) FindContext(ctx context.Context, col string, filter storage.Doc, opts docstore.FindOptions) ([]storage.Doc, error) {
	return e.local.FindContext(ctx, col, filter, opts)
}

func (e *followerEngine) FindRows(ctx context.Context, col string, filter storage.Doc, opts docstore.FindOptions) ([]docstore.Row, error) {
	return e.local.FindRows(ctx, col, filter, opts)
}

func (e *followerEngine) CountContext(ctx context.Context, col string, filter storage.Doc) (int, error) {
	return e.local.CountContext(ctx, col, filter)
}

func (e *followerEngine) EnsureIndex(col, field string) {
	// Index mutations replicate from the leader; a pre-promotion
	// EnsureIndex would desync the follower's commit history.
	if e.writable() {
		e.local.EnsureIndex(col, field)
	}
}

func (e *followerEngine) Collections() []string { return e.local.Collections() }

func (e *followerEngine) Stats(col string) docstore.Stats { return e.local.Stats(col) }

func (e *followerEngine) Checkpoint() error { return e.local.Checkpoint() }

func (e *followerEngine) Close() error { return e.f().Close() }

var _ storage.Engine = (*followerEngine)(nil)
