// Package wal is a write-ahead log for the GoFlow document store: an
// append-only, segment-rotated record log with group commit, so every
// accepted crowd-sensed observation is durable before it is
// acknowledged. The paper's backend delegated this to MongoDB's
// journal; the reproduction's in-process store needs its own.
//
// Design in one paragraph: appenders frame records (CRC-32C, length
// prefix, monotonic LSN) into a shared buffer under a short mutex and
// receive a Ticket; Wait elects the first waiter through the I/O lock
// as the commit leader, and the leader flushes everything that
// accumulated — its own record plus every record appended while the
// previous leader's fsync was in flight — with one buffered write and
// one fsync, releasing every Ticket in the batch. Group commit thus
// amortizes the dominant fsync cost across concurrent writers without
// weakening the guarantee or adding any timer latency: batch size
// scales with writer concurrency, and a lone writer commits at
// per-record-fsync speed. Wait returning nil means the record is on
// stable storage (under the default grouped policy and the per-record
// always policy; the none policy trades the guarantee away for
// speed). On open, the log truncates a torn final record at the first
// bad checksum — the only damage a crash can legitimately inflict —
// and Replay streams the surviving records in LSN order. Checkpoints
// bound the log: Rotate seals the active segment, and after the store
// snapshots, TruncateBefore deletes every segment the snapshot now
// covers.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/fsys"
)

// FsyncPolicy selects when appended records are fsynced.
type FsyncPolicy int

const (
	// FsyncGrouped (default) coalesces concurrent appends into one
	// write + one fsync; Wait returns only after the fsync, so an
	// acknowledged record survives a crash.
	FsyncGrouped FsyncPolicy = iota
	// FsyncAlways writes and fsyncs every record individually, in LSN
	// order — exactly one fsync per record, never coalesced. It is the
	// per-record baseline group commit is measured against (and what a
	// naive durable logger does).
	FsyncAlways
	// FsyncNone never fsyncs on the append path (the OS flushes at
	// its leisure); Wait returns immediately, before the record even
	// reaches the kernel. A crash can lose acknowledged records —
	// benchmark ceiling and "I have a UPS" mode only.
	FsyncNone
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncGrouped:
		return "grouped"
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "grouped":
		return FsyncGrouped, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want grouped, always or none)", s)
	}
}

// Options configure Open. The zero value gives the defaults noted on
// each field.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this
	// size (default 64 MiB).
	SegmentBytes int64
	// Policy is the fsync policy (default FsyncGrouped).
	Policy FsyncPolicy
	// WrapSegment, when non-nil, wraps each segment file's write path
	// — the fault-injection seam crash tests use to tear writes at a
	// byte budget (same pattern as docstore.SaveFileVia). Sync still
	// goes to the real file.
	WrapSegment func(io.Writer) io.Writer
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 64 << 20
	}
	return out
}

// Group-commit constants.
const (
	// maxBatch flushes a group-commit batch early once this many
	// records are pending.
	maxBatch = 128
	// maxDelay bounds how long a record appended fire-and-forget
	// (Append without Wait) can sit in the buffer before the backstop
	// committer flushes it. Waited appends never depend on it: the
	// waiters themselves drive the flush, so batching comes from
	// concurrency, not from a timer.
	maxDelay = 2 * time.Millisecond
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// ErrTruncated is returned by ReadFrom when the requested LSN predates
// the oldest record still on disk: a checkpoint already deleted the
// segment holding it, so the reader needs a snapshot, not the log.
var ErrTruncated = errors.New("wal: requested lsn precedes retained log")

// CorruptionError reports damage inside a sealed segment — the one
// kind of error recovery cannot repair, since Open already truncated
// the only legitimate crash damage (the torn tail of the final
// segment). It pinpoints the segment file and byte offset so a
// multi-shard operator can localize which replica's disk is bad.
type CorruptionError struct {
	// Segment is the path of the damaged segment file.
	Segment string
	// Offset is the byte offset of the first bad frame.
	Offset int64
	// LastLSN is the last intact LSN before the damage (0 when the
	// segment's very first record is bad and nothing preceded it).
	LastLSN uint64
	// Err is the underlying decode or sequence error.
	Err error
}

// Error formats the full localization: file, offset and last good LSN.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: segment %s corrupt at offset %d (last intact lsn %d): %v",
		e.Segment, e.Offset, e.LastLSN, e.Err)
}

// Unwrap exposes the underlying error for errors.Is matching
// (typically ErrCorrupt).
func (e *CorruptionError) Unwrap() error { return e.Err }

// Ticket is the handle for one appended record. Wait blocks until the
// record's durability is decided per the fsync policy and returns nil
// exactly when the record is committed.
type Ticket struct {
	w    *WAL
	lsn  uint64
	size int // framed bytes, so FsyncAlways can commit records one at a time
	err  error
	done chan struct{}
	// preAcked marks a ticket completed at append time (FsyncNone):
	// the flush must not complete it again.
	preAcked bool
}

// LSN returns the record's log sequence number.
func (t *Ticket) LSN() uint64 { return t.lsn }

// Wait blocks until the record is committed per the fsync policy.
// Under the syncing policies the waiters drive the commit themselves
// with explicit leader election: the first waiter to find no flush in
// flight becomes the leader and commits everything pending; waiters
// that arrive while the leader's fsync is in flight sleep on the
// condition variable, and their records form the leader's next batch.
// That is where group commit's batching comes from — batch size
// tracks writer concurrency, with no timers involved.
func (t *Ticket) Wait() error {
	w := t.w
	if w.opt.Policy == FsyncNone {
		<-t.done
		return t.err
	}
	w.mu.Lock()
	for w.durable.Load() < t.lsn && !t.closed() {
		if w.flushing {
			w.flushCond.Wait()
			continue
		}
		w.flushing = true
		w.mu.Unlock()
		// Yield once before swapping the buffer: the previous batch's
		// waiters are re-appending right now, and a scheduler pass lets
		// them join this batch instead of dribbling into one-record
		// fsyncs. This is a free scheduling hint, not a timer — a lone
		// writer proceeds immediately.
		runtime.Gosched()
		w.flush(true, false)
		w.mu.Lock()
		w.flushing = false
		w.flushCond.Broadcast()
	}
	w.mu.Unlock()
	<-t.done
	return t.err
}

// closed reports whether the ticket's outcome is already decided.
func (t *Ticket) closed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	// LastLSN is the highest assigned LSN.
	LastLSN uint64
	// DurableLSN is the highest LSN known to be fsynced.
	DurableLSN uint64
	// Segments counts live segment files, including the active one.
	Segments int
	// ActiveBytes is the size of the active segment.
	ActiveBytes int64
	// Records and Bytes count everything written since Open.
	Records uint64
	Bytes   uint64
	// Fsyncs counts segment fsync calls since Open.
	Fsyncs uint64
	// ReplayedRecords and ReplayDuration describe the last Replay:
	// the records applied, and the time from its first read to its
	// last apply.
	ReplayedRecords int
	ReplayDuration  time.Duration
}

// WAL is an append-only record log. All methods are safe for
// concurrent use. A directory must be owned by at most one open WAL
// in one process; the package does no cross-process locking.
type WAL struct {
	dir     string
	opt     Options
	metrics atomic.Pointer[walMetrics]

	// mu guards the append state: pending buffer, waiters, LSN
	// assignment, leader election, failure and close flags. Held only
	// for short, in-memory operations so appenders never block on
	// disk here.
	mu        sync.Mutex
	buf       []byte
	waiters   []*Ticket
	spareB    []byte
	spareW    []*Ticket
	lsn       uint64
	failed    error
	closed    bool
	flushing  bool       // a Wait-elected leader's flush is in flight
	flushCond *sync.Cond // signaled (under mu) when the leader finishes

	// ioMu serializes all file I/O: flushes, rotation, truncation,
	// replay. Lock order is always ioMu before mu.
	ioMu   sync.Mutex
	seg    *segment
	sealed []segInfo

	durable atomic.Uint64

	// notifyMu guards durableCh, the broadcast channel closed (and
	// replaced) every time the durable LSN advances. Replication
	// followers long-poll on it to tail the log without busy waiting.
	notifyMu  sync.Mutex
	durableCh chan struct{}

	records atomic.Uint64
	bytes   atomic.Uint64
	fsyncs  atomic.Uint64

	replayed  int
	replayDur time.Duration

	kick chan struct{}
	full chan struct{}
	quit chan struct{}
	done chan struct{}
}

// Open opens (or creates) the log in dir, truncating a torn tail in
// the final segment at the first bad checksum. Call Replay before the
// first Append to recover the surviving records.
func Open(dir string, opt Options) (*WAL, error) {
	opt = (&opt).withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		dir:       dir,
		opt:       opt,
		kick:      make(chan struct{}, 1),
		full:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		durableCh: make(chan struct{}),
	}
	w.flushCond = sync.NewCond(&w.mu)
	if len(segs) == 0 {
		seg, err := createSegment(dir, 1, opt.WrapSegment)
		if err != nil {
			return nil, err
		}
		w.seg = seg
	} else {
		last := segs[len(segs)-1]
		validSize, lastLSN, err := scanTail(last.path, last.firstLSN)
		if err != nil {
			return nil, err
		}
		if validSize < last.size {
			if err := truncateSegment(last.path, validSize); err != nil {
				return nil, err
			}
		}
		seg, err := openSegmentAt(last.path, last.firstLSN, validSize, opt.WrapSegment)
		if err != nil {
			return nil, err
		}
		w.seg = seg
		w.lsn = lastLSN
		w.sealed = segs[:len(segs)-1]
	}
	w.durable.Store(w.lsn)
	go w.committer()
	return w, nil
}

// scanTail walks a segment and returns the byte length of its intact
// record prefix and the last valid LSN (firstLSN-1 when none). A
// decode failure marks the torn tail; structurally impossible
// sequences (LSN going backwards) are reported as hard errors.
func scanTail(path string, firstLSN uint64) (int64, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	off := 0
	lastLSN := firstLSN - 1
	want := firstLSN
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			break // torn tail: truncate here
		}
		if rec.LSN != want {
			return 0, 0, &CorruptionError{Segment: path, Offset: int64(off), LastLSN: lastLSN,
				Err: fmt.Errorf("lsn %d out of sequence (want %d)", rec.LSN, want)}
		}
		lastLSN = rec.LSN
		want = rec.LSN + 1
		off += n
	}
	return int64(off), lastLSN, nil
}

// truncateSegment chops a torn tail off a segment and makes the
// truncation durable.
func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen after truncate: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync after truncate: %w", err)
	}
	return nil
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// LastLSN returns the highest assigned LSN.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// DurableLSN returns the highest LSN known fsynced.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// advanceDurable publishes a new durable LSN and wakes everyone
// blocked on DurableNotify.
func (w *WAL) advanceDurable(lsn uint64) {
	w.durable.Store(lsn)
	w.notifyMu.Lock()
	close(w.durableCh)
	w.durableCh = make(chan struct{})
	w.notifyMu.Unlock()
}

// DurableNotify returns a channel closed the next time the durable LSN
// advances. The long-poll idiom for tailing the log:
//
//	ch := w.DurableNotify()
//	if w.DurableLSN() >= target { ... } // re-check after subscribing
//	select { case <-ch: ... case <-timeout: ... }
//
// Each advance closes the current channel and installs a fresh one, so
// a caller must re-subscribe per wait.
func (w *WAL) DurableNotify() <-chan struct{} {
	w.notifyMu.Lock()
	defer w.notifyMu.Unlock()
	return w.durableCh
}

// ReadFrom returns up to maxRecords committed records with LSN >=
// fromLSN (maxBytes bounds their combined payload size; both limits
// <= 0 mean unbounded). Only records at or below the durable LSN are
// returned — the log never ships a record it has not fsynced — and
// payloads are copied, so the result is safe to retain and serialize.
// It is the record-streaming primitive of log-shipping replication:
// catch-up reads drain the sealed segments in big batches, then the
// live tail polls with DurableNotify. ReadFrom returns ErrTruncated
// when fromLSN predates the oldest retained segment (the reader must
// bootstrap from a snapshot instead) and a *CorruptionError when a
// sealed segment is damaged.
func (w *WAL) ReadFrom(fromLSN uint64, maxRecords, maxBytes int) ([]Record, error) {
	durable := w.durable.Load()
	if fromLSN > durable {
		return nil, nil
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	segs := append(append([]segInfo(nil), w.sealed...), w.seg.info())
	if fromLSN < segs[0].firstLSN {
		return nil, fmt.Errorf("%w: lsn %d, oldest retained %d", ErrTruncated, fromLSN, segs[0].firstLSN)
	}
	var out []Record
	var outBytes int
	for i, s := range segs {
		// Skip segments wholly below fromLSN: the next segment's first
		// LSN bounds this one's range.
		if i+1 < len(segs) && segs[i+1].firstLSN <= fromLSN {
			continue
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		off := 0
		prev := s.firstLSN - 1
		for off < len(data) {
			rec, sz, err := DecodeRecord(data[off:])
			if err != nil {
				return nil, &CorruptionError{Segment: s.path, Offset: int64(off), LastLSN: prev, Err: err}
			}
			prev = rec.LSN
			off += sz
			if rec.LSN < fromLSN {
				continue
			}
			if rec.LSN > durable {
				return out, nil
			}
			payload := make([]byte, len(rec.Payload))
			copy(payload, rec.Payload)
			out = append(out, Record{LSN: rec.LSN, Type: rec.Type, Payload: payload})
			outBytes += len(payload)
			if (maxRecords > 0 && len(out) >= maxRecords) || (maxBytes > 0 && outBytes >= maxBytes) {
				return out, nil
			}
		}
	}
	return out, nil
}

// Append frames one record into the pending batch and returns its
// Ticket. The call itself never touches disk — callers may hold locks
// across it — and Wait must be called lock-free to learn the commit
// outcome. After any write or sync failure the log is failed closed:
// every subsequent Append and Wait returns the sticky error, because a
// torn segment tail cannot safely be appended past.
func (w *WAL) Append(typ byte, payload []byte) (*Ticket, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("wal: payload %d bytes exceeds MaxPayload", len(payload))
	}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return nil, err
	}
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	w.lsn++
	t := &Ticket{w: w, lsn: w.lsn, size: recordSize(len(payload)), done: make(chan struct{})}
	if w.opt.Policy == FsyncNone {
		// No durability promised: acknowledge now, let the committer
		// write the record in the background.
		t.preAcked = true
		close(t.done)
	}
	w.buf = AppendRecord(w.buf, t.lsn, typ, payload)
	w.waiters = append(w.waiters, t)
	n := len(w.waiters)
	w.mu.Unlock()

	if n == 1 {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	if n >= maxBatch {
		select {
		case w.full <- struct{}{}:
		default:
		}
	}
	return t, nil
}

// committer is the backstop flush loop. Waited appends commit through
// their own Wait calls; the committer exists so records appended
// fire-and-forget still reach the disk within maxDelay (immediately
// under FsyncNone, where no waiter will ever flush and the buffer
// must not grow unbounded).
func (w *WAL) committer() {
	defer close(w.done)
	sync := w.opt.Policy != FsyncNone
	delay := maxDelay
	if w.opt.Policy == FsyncNone {
		delay = 0
	}
	for {
		select {
		case <-w.quit:
			w.flush(sync, false)
			return
		case <-w.kick:
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-w.full:
				timer.Stop()
			case <-timer.C:
			case <-w.quit:
				timer.Stop()
				w.flush(sync, false)
				return
			}
		}
		w.flush(sync, false)
	}
}

// flush writes and (optionally) fsyncs every pending record, then
// releases the batch's tickets. With rotate it additionally seals the
// active segment afterwards, returning the LSN cut: every record at or
// below the cut is in sealed segments. flush is the only function that
// performs file I/O on the append path and is serialized by ioMu.
func (w *WAL) flush(sync, rotate bool) (cut uint64, err error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	return w.flushLocked(sync, rotate)
}

// flushLocked is flush's body; the caller holds ioMu.
func (w *WAL) flushLocked(sync, rotate bool) (cut uint64, err error) {
	w.mu.Lock()
	buf, waiters := w.buf, w.waiters
	w.buf, w.waiters = w.spareB[:0], w.spareW[:0]
	w.spareB, w.spareW = buf, waiters
	cut = w.lsn
	failed := w.failed
	w.mu.Unlock()

	if failed != nil {
		completeAll(waiters, failed)
		clearTickets(waiters)
		return cut, failed
	}
	if len(buf) > 0 {
		if sync && w.opt.Policy == FsyncAlways {
			err = w.commitEach(buf, waiters)
		} else {
			err = w.commitBatch(buf, waiters, sync)
		}
		if err != nil {
			clearTickets(waiters)
			return cut, err
		}
		w.records.Add(uint64(len(waiters)))
		w.bytes.Add(uint64(len(buf)))
	} else {
		completeAll(waiters, nil)
	}
	clearTickets(waiters)

	if rotate || w.seg.size >= w.opt.SegmentBytes {
		if err := w.rotateLocked(cut); err != nil {
			return cut, err
		}
	}
	return cut, nil
}

// commitBatch is the group-commit path: one write and (optionally) one
// fsync for the whole batch, then every ticket completes. Caller holds
// ioMu. On error the WAL is failed and every ticket carries the error.
func (w *WAL) commitBatch(buf []byte, waiters []*Ticket, sync bool) error {
	if _, werr := w.seg.w.Write(buf); werr != nil {
		werr = fmt.Errorf("wal: append to %s: %w", w.seg.path, werr)
		w.fail(werr)
		completeAll(waiters, werr)
		return werr
	}
	w.seg.size += int64(len(buf))
	if sync {
		m := w.metrics.Load()
		start := m.start()
		if serr := w.seg.sync(); serr != nil {
			serr = fmt.Errorf("wal: fsync %s: %w", w.seg.path, serr)
			w.fail(serr)
			completeAll(waiters, serr)
			return serr
		}
		w.fsyncs.Add(1)
		if len(waiters) > 0 {
			w.advanceDurable(waiters[len(waiters)-1].lsn)
		}
		m.synced(len(waiters), start)
	}
	completeAll(waiters, nil)
	return nil
}

// commitEach is the FsyncAlways path: every record is written and
// fsynced individually, in LSN order, and its ticket completes right
// after its own fsync — exactly one fsync per record, the strict
// per-record-durability baseline. Caller holds ioMu. An error fails
// the WAL and every remaining ticket.
func (w *WAL) commitEach(buf []byte, waiters []*Ticket) error {
	m := w.metrics.Load()
	off := 0
	for i, t := range waiters {
		frame := buf[off : off+t.size]
		if _, werr := w.seg.w.Write(frame); werr != nil {
			werr = fmt.Errorf("wal: append to %s: %w", w.seg.path, werr)
			w.fail(werr)
			completeAll(waiters[i:], werr)
			return werr
		}
		w.seg.size += int64(len(frame))
		start := m.start()
		if serr := w.seg.sync(); serr != nil {
			serr = fmt.Errorf("wal: fsync %s: %w", w.seg.path, serr)
			w.fail(serr)
			completeAll(waiters[i:], serr)
			return serr
		}
		w.fsyncs.Add(1)
		w.advanceDurable(t.lsn)
		m.synced(1, start)
		completeAll(waiters[i:i+1], nil)
		off += t.size
	}
	return nil
}

// fail records the sticky failure under mu.
func (w *WAL) fail(err error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.mu.Unlock()
}

func completeAll(ts []*Ticket, err error) {
	for _, t := range ts {
		if t.preAcked {
			continue
		}
		t.err = err
		close(t.done)
	}
}

// clearTickets drops ticket pointers so the recycled waiter slice does
// not pin completed tickets in memory.
func clearTickets(ts []*Ticket) {
	for i := range ts {
		ts[i] = nil
	}
}

// rotateLocked seals the active segment (fully synced, whatever the
// policy — sealed segments are immutable and checkpoints trust them)
// and opens a successor whose first LSN follows the cut. Caller holds
// ioMu; the active segment must be empty of unflushed records.
func (w *WAL) rotateLocked(cut uint64) error {
	if w.seg.size == 0 {
		return nil // nothing to seal; the active segment already starts at cut+1
	}
	if err := w.seg.sync(); err != nil {
		err = fmt.Errorf("wal: fsync before seal: %w", err)
		w.fail(err)
		return err
	}
	if err := w.seg.close(); err != nil {
		err = fmt.Errorf("wal: close sealed segment: %w", err)
		w.fail(err)
		return err
	}
	w.sealed = append(w.sealed, w.seg.info())
	seg, err := createSegment(w.dir, cut+1, w.opt.WrapSegment)
	if err != nil {
		w.fail(err)
		return err
	}
	w.seg = seg
	if m := w.metrics.Load(); m != nil {
		m.rotations.Inc()
	}
	return nil
}

// Rotate flushes and fsyncs everything pending, seals the active
// segment and returns the first LSN of the new active segment. A
// checkpoint calls Rotate, snapshots the store (which then covers
// every record below the returned LSN), and finally calls
// TruncateBefore with the same LSN to delete the sealed history.
func (w *WAL) Rotate() (uint64, error) {
	cut, err := w.flush(true, true)
	if err != nil {
		return 0, err
	}
	return cut + 1, nil
}

// Sync forces a flush and fsync of everything pending.
func (w *WAL) Sync() error {
	_, err := w.flush(true, false)
	return err
}

// TruncateBefore deletes every sealed segment whose records all have
// LSN < lsn, returning how many were removed. The active segment is
// never touched.
func (w *WAL) TruncateBefore(lsn uint64) (int, error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	n := 0
	for len(w.sealed) > 0 {
		next := w.seg.firstLSN
		if len(w.sealed) > 1 {
			next = w.sealed[1].firstLSN
		}
		if next > lsn {
			break // segment still holds records >= lsn
		}
		if err := os.Remove(w.sealed[0].path); err != nil {
			return n, fmt.Errorf("wal: remove sealed segment: %w", err)
		}
		w.sealed = w.sealed[1:]
		n++
	}
	if n > 0 {
		if err := fsys.SyncDir(w.dir); err != nil {
			return n, fmt.Errorf("wal: %w", err)
		}
		if m := w.metrics.Load(); m != nil {
			m.truncated.Add(uint64(n))
		}
	}
	return n, nil
}

// Reset discards the entire log and restarts numbering at next: every
// segment (sealed and active) is deleted and a fresh active segment
// whose first LSN is next is created, so LastLSN and DurableLSN become
// next-1. It is the log half of restoring a snapshot that covers LSNs
// below next — the local history is untrusted (divergent or simply
// absent) and the snapshot supersedes it. Reset refuses to run with
// appends pending or after a failure or Close; the caller must
// quiesce writers first.
func (w *WAL) Reset(next uint64) error {
	if next == 0 {
		return fmt.Errorf("wal: reset to lsn 0 (first assignable LSN is 1)")
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	switch {
	case w.failed != nil:
		err := w.failed
		w.mu.Unlock()
		return err
	case w.closed:
		w.mu.Unlock()
		return ErrClosed
	case len(w.waiters) > 0 || len(w.buf) > 0:
		w.mu.Unlock()
		return fmt.Errorf("wal: reset with appends pending")
	}
	w.mu.Unlock()

	if err := w.seg.close(); err != nil {
		err = fmt.Errorf("wal: close active segment for reset: %w", err)
		w.fail(err)
		return err
	}
	for _, s := range append(append([]segInfo(nil), w.sealed...), w.seg.info()) {
		if err := os.Remove(s.path); err != nil {
			err = fmt.Errorf("wal: remove segment for reset: %w", err)
			w.fail(err)
			return err
		}
	}
	w.sealed = nil
	seg, err := createSegment(w.dir, next, w.opt.WrapSegment)
	if err != nil {
		w.fail(err)
		return err
	}
	w.seg = seg
	if err := fsys.SyncDir(w.dir); err != nil {
		err = fmt.Errorf("wal: %w", err)
		w.fail(err)
		return err
	}
	w.mu.Lock()
	w.lsn = next - 1
	w.mu.Unlock()
	w.advanceDurable(next - 1)
	return nil
}

// Replay runs in two stages. A reader goroutine reads each segment,
// checks every record's CRC and LSN order and decodes its payload;
// the caller's goroutine applies the decoded records in LSN order. The
// reader hands records over in batches of about replayBatchBytes of
// log, so a log of one-document records pays one handoff per hundred
// or so records rather than one each, and it runs at most replayDepth
// batches ahead of the apply stage: enough to keep both cores busy
// through a record that is slow to apply, and a bound on how many
// decoded records wait in memory.
const (
	replayBatchBytes = 32 << 10
	replayDepth      = 4
)

// replayBatch is one handoff from the reader stage: records decoded in
// LSN order and, on the last batch of a failed read, the failure that
// ended it, which comes after every record in the batch.
type replayBatch[T any] struct {
	lsns []uint64
	vals []T
	err  error
}

// Replay streams every record in the log, sealed segments first, in
// strictly contiguous LSN order, through two stages: decode runs on a
// reader goroutine one stage ahead, apply on the caller's goroutine in
// LSN order. It must run before the first Append — typically straight
// after Open. decode's payload aliases a read buffer and must not be
// retained. Corruption here is a hard error: Open already truncated
// the only legitimate damage (the torn tail of the final segment), so
// anything Replay trips over means a sealed segment was damaged
// outside the crash model.
//
// The result is the one a loop that decoded and applied each record in
// turn would give: the first failure in LSN order — a read error, a
// *CorruptionError, a decode or an apply error — is returned, every
// record before it has been applied and none after it. The reader has
// exited by the time Replay returns, on every path. Stats reports the
// replay's duration from the first read to the last apply.
func Replay[T any](w *WAL, decode func(lsn uint64, typ byte, payload []byte) (T, error), apply func(lsn uint64, v T) error) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	start := time.Now()
	segs := append(append([]segInfo(nil), w.sealed...), w.seg.info())
	batches := make(chan replayBatch[T], replayDepth)
	stop := make(chan struct{})
	go readLog(segs, decode, batches, stop)
	defer func() {
		close(stop)
		for range batches { // wait for the reader to exit
		}
	}()
	n := 0
	for b := range batches {
		for i, lsn := range b.lsns {
			if err := apply(lsn, b.vals[i]); err != nil {
				return err
			}
			n++
		}
		if b.err != nil {
			return b.err
		}
	}
	w.replayed = n
	w.replayDur = time.Since(start)
	return nil
}

// readLog is Replay's reader stage. It sends the decoded records of
// segs to batches and closes it when the log ends, at the first
// failure, or once stop is closed.
func readLog[T any](segs []segInfo, decode func(lsn uint64, typ byte, payload []byte) (T, error), batches chan<- replayBatch[T], stop <-chan struct{}) {
	defer close(batches)
	var b replayBatch[T]
	send := func() bool {
		select {
		case batches <- b:
			b = replayBatch[T]{}
			return true
		case <-stop:
			return false
		}
	}
	size := 0
	err := scanLog(segs, func(rec Record, sz int) error {
		v, err := decode(rec.LSN, rec.Type, rec.Payload)
		if err != nil {
			return err
		}
		b.lsns = append(b.lsns, rec.LSN)
		b.vals = append(b.vals, v)
		if size += sz; size >= replayBatchBytes {
			if !send() {
				return errStopped
			}
			size = 0
		}
		return nil
	})
	if err == errStopped {
		return
	}
	if b.err = err; b.err != nil || len(b.lsns) > 0 {
		send()
	}
}

// errStopped ends a scan whose reader was told to stop.
var errStopped = errors.New("wal: replay stopped")

// scanLog calls fn with every record of segs and its size in the log,
// in order, after checking that the segments and the records in them
// follow each other without a gap.
func scanLog(segs []segInfo, fn func(rec Record, sz int) error) error {
	prev := segs[0].firstLSN - 1
	for _, s := range segs {
		if s.firstLSN != prev+1 {
			return fmt.Errorf("wal: segment gap: %s starts at lsn %d, want %d", s.path, s.firstLSN, prev+1)
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		off := 0
		for off < len(data) {
			rec, sz, err := DecodeRecord(data[off:])
			if err != nil {
				return &CorruptionError{Segment: s.path, Offset: int64(off), LastLSN: prev, Err: err}
			}
			if rec.LSN != prev+1 {
				return &CorruptionError{Segment: s.path, Offset: int64(off), LastLSN: prev,
					Err: fmt.Errorf("lsn %d out of sequence (want %d)", rec.LSN, prev+1)}
			}
			if err := fn(rec, sz); err != nil {
				return err
			}
			prev = rec.LSN
			off += sz
		}
	}
	return nil
}

// Stats snapshots the log counters.
func (w *WAL) Stats() Stats {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	last := w.lsn
	w.mu.Unlock()
	return Stats{
		LastLSN:         last,
		DurableLSN:      w.durable.Load(),
		Segments:        len(w.sealed) + 1,
		ActiveBytes:     w.seg.size,
		Records:         w.records.Load(),
		Bytes:           w.bytes.Load(),
		Fsyncs:          w.fsyncs.Load(),
		ReplayedRecords: w.replayed,
		ReplayDuration:  w.replayDur,
	}
}

// Close flushes and fsyncs everything pending, stops the committer and
// closes the active segment. Appends racing Close either complete in
// the final flush or fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()

	close(w.quit)
	<-w.done
	_, err := w.flush(true, false)
	if err != nil && errors.Is(err, ErrClosed) {
		err = nil
	}
	w.ioMu.Lock()
	cerr := w.seg.close()
	w.ioMu.Unlock()
	if err == nil && cerr != nil {
		err = fmt.Errorf("wal: close segment: %w", cerr)
	}
	if err != nil && w.failedErr() != nil {
		// The log already failed mid-run; Close reporting the same
		// sticky error again adds nothing.
		return nil
	}
	return err
}

func (w *WAL) failedErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}
