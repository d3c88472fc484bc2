package docstore

// Commit log seam: the durability counterpart of the metrics. When a
// CommitLog is attached, every mutation is logged before the method
// returns — Log is invoked with the owning collection's lock held
// (immediately after validation, so the log order is exactly the apply
// order) and the returned ticket's Wait is called after the lock is
// released, so group-commit fsyncs never run under a collection lock.
//
// Semantics on failure: a mutation whose ticket Wait fails has been
// applied in memory but its durability is unknown; the method reports
// the error and callers must treat the operation as not acknowledged
// (after a crash and replay it may or may not exist). A mutation whose
// Log call itself fails is not applied at all.

// MutationOp discriminates logged mutations.
type MutationOp byte

// Mutation operations. The values are stable on-disk identifiers —
// they double as WAL record types — so they must never be renumbered.
const (
	OpInsert MutationOp = iota + 1
	OpInsertMany
	OpUpdate
	OpUnset
	OpDelete
	OpDrop
	OpEnsureIndex
)

// String returns the mutation kind for logs and tests.
func (op MutationOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpInsertMany:
		return "insert-many"
	case OpUpdate:
		return "update"
	case OpUnset:
		return "unset"
	case OpDelete:
		return "delete"
	case OpDrop:
		return "drop"
	case OpEnsureIndex:
		return "ensure-index"
	default:
		return "unknown"
	}
}

// Mutation is one typed store mutation, the unit the commit log
// records and recovery replays. Only the fields relevant to Op are
// set:
//
//	OpInsert      ID, Doc (the full document, id assigned)
//	OpInsertMany  Docs (full documents, ids assigned)
//	OpUpdate      ID, Fields (the merged fields)
//	OpUnset       ID, Names (the removed fields)
//	OpDelete      ID
//	OpDrop        (collection only)
//	OpEnsureIndex Names[0] (the indexed field)
//
// The mutations a store hands its CommitLog carry the documents of an
// insert in stored form instead of Doc and Docs; EncodeMutation, which
// is how a commit log serializes any mutation, writes the same bytes
// from either.
type Mutation struct {
	Op         MutationOp
	Collection string
	ID         string
	Doc        Doc
	Docs       []Doc
	Fields     Doc
	Names      []string

	// packed, when not nil, is the documents of an insert (one) or an
	// insert-many in stored form, and Doc and Docs are unset: what a
	// collection logs, and what a record is decoded to on its way to be
	// applied.
	packed []packed

	// format is set when a record is decoded: which encoding it was
	// read from, counted when it is applied (see FormatStats).
	format payloadFormat
}

// payloadFormat names an on-disk encoding of mutations and snapshots.
type payloadFormat uint8

const (
	formatGob payloadFormat = iota + 1 // legacy: read, never written
	formatBin                          // codec.go, version 1
)

// FormatStats counts what this store has read back, by the encoding it
// was in — how an operator tells when the first checkpoint after an
// upgrade has retired the last legacy bytes.
type FormatStats struct {
	// DecodedGob and DecodedBin count the records ApplyRecord decoded
	// and applied (WAL replay and replication apply).
	DecodedGob, DecodedBin uint64
	// RestoredGob and RestoredBin count snapshots restored.
	RestoredGob, RestoredBin uint64
}

// FormatStats snapshots the store's read-format counters.
func (s *Store) FormatStats() FormatStats {
	return FormatStats{
		DecodedGob: s.decoded[formatGob].Load(), DecodedBin: s.decoded[formatBin].Load(),
		RestoredGob: s.restored[formatGob].Load(), RestoredBin: s.restored[formatBin].Load(),
	}
}

// CommitTicket is the pending-durability handle of one logged
// mutation; Wait blocks until the record is committed per the log's
// policy and returns nil exactly when it is.
type CommitTicket interface{ Wait() error }

// CommitLog receives every mutation of a store. Implementations must
// serialize the mutation during Log (the *Mutation and its documents
// are owned by the store and may be reused after Log returns) and must
// be fast: Log runs under the collection lock, so any blocking work
// belongs behind the returned ticket's Wait.
type CommitLog interface {
	Log(m *Mutation) (CommitTicket, error)
}

// commitLogBox wraps the interface for atomic.Pointer storage.
type commitLogBox struct{ cl CommitLog }

// SetCommitLog attaches a commit log to every collection of the store,
// current and future (nil detaches). Attach after any recovery replay
// and before serving writes; mutations already applied are not
// re-logged retroactively.
func (s *Store) SetCommitLog(cl CommitLog) {
	if cl == nil {
		s.commitLog.Store(nil)
		return
	}
	s.commitLog.Store(&commitLogBox{cl: cl})
}

// logLocked logs a collection mutation when a log is attached; the
// caller holds the collection lock. A nil, nil return means no log is
// attached.
func (c *Collection) logLocked(m *Mutation) (CommitTicket, error) {
	if c.commitLog == nil {
		return nil, nil
	}
	box := c.commitLog.Load()
	if box == nil {
		return nil, nil
	}
	return box.cl.Log(m)
}

// commitWait waits out a mutation's durability ticket (nil tickets —
// no log attached — are immediately durable by definition).
func commitWait(tk CommitTicket) error {
	if tk == nil {
		return nil
	}
	return tk.Wait()
}
