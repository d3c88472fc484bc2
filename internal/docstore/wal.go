package docstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"github.com/urbancivics/goflow/internal/wal"
)

// WAL integration: AttachWAL plugs the write-ahead log into the
// store's commit-log seam so every mutation is a typed, durable WAL
// record, and RecoverWAL rebuilds the store after a crash by loading
// the latest snapshot (the caller does that first, via LoadFile) and
// replaying the log tail on top.
//
// Replay is idempotent by construction, because a checkpoint snapshot
// is not a point-in-time cut of the whole log: each collection's
// snapshot is a consistent prefix of that collection's mutations (both
// the mutation's LSN assignment and the collection snapshot run under
// the collection lock), but different collections may be cut at
// different LSNs, and the checkpoint only truncates segments entirely
// below the rotation cut. Replaying a record the snapshot already
// covers must therefore converge rather than double-apply:
//
//   - insert of an existing id replaces the document in place (its
//     later state is restored by the later records that made it so);
//   - update/unset/delete of a missing id is a no-op (a later delete
//     already covered by the snapshot removed it);
//   - drop and ensure-index are naturally idempotent.

// ErrCommitLogAttached is returned by RecoverWAL when a commit log is
// already attached: replaying into a store that re-logs every applied
// mutation would double every record.
var ErrCommitLogAttached = errors.New("docstore: commit log already attached")

// AttachWAL installs w as the store's commit log. Call it after
// RecoverWAL and before serving writes.
func AttachWAL(s *Store, w *wal.WAL) {
	s.SetCommitLog(walCommitLog{w: w})
}

// walCommitLog adapts *wal.WAL to the CommitLog seam: each Mutation is
// encoded (codec.go) as the payload of one WAL record whose type byte
// is the mutation op.
type walCommitLog struct{ w *wal.WAL }

// Log implements CommitLog. It serializes the mutation immediately
// (the store may reuse the Mutation after Log returns) and appends it
// to the WAL's pending group-commit batch; the heavy work — the write
// and the fsync — happens behind the ticket's Wait, off the collection
// lock.
func (l walCommitLog) Log(m *Mutation) (CommitTicket, error) {
	payload, err := EncodeMutation(m)
	if err != nil {
		return nil, err
	}
	t, err := l.w.Append(byte(m.Op), payload)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeMutation encodes a mutation into a WAL record payload. Each
// record carries its own string dictionary: self-contained records
// cost a one-document record its field names but keep every record
// independently decodable, which is what lets recovery truncate at an
// arbitrary torn record — and what lets a replication follower apply
// shipped records one by one. A document value outside the codec's
// types fails with ErrUnsupportedValue. Exported for the cluster layer.
func EncodeMutation(m *Mutation) ([]byte, error) {
	e := getEncoder()
	defer e.release()
	if err := e.mutation(m); err != nil {
		return nil, fmt.Errorf("docstore: encode wal mutation: %w", err)
	}
	return bytes.Clone(e.buf), nil
}

// decodeMutation decodes one WAL record payload back into a Mutation
// (the inverse of EncodeMutation). Without shapes its documents are
// maps; with shapes set, the documents of a binary insert come back in
// stored form (m.packed). It also reads the gob payloads every binary
// before the document codec wrote, so a log or a replication leader of
// that vintage stays readable; nothing writes them any more.
func decodeMutation(payload []byte, shapes *shapeCache) (*Mutation, error) {
	if len(payload) > 0 && payload[0] == codecMarker {
		d := getDecoder(payload[1:])
		defer d.release()
		d.shapes = shapes
		m, err := d.mutation()
		if err != nil {
			return nil, fmt.Errorf("docstore: decode wal mutation: %w", err)
		}
		return m, nil
	}
	m := Mutation{format: formatGob}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("docstore: decode wal mutation: %w", err)
	}
	return &m, nil
}

// WALRecovery reports what RecoverWAL replayed.
type WALRecovery struct {
	// Records is how many WAL records were replayed.
	Records int
	// Duration is the replay wall time.
	Duration time.Duration
}

// RecoverWAL replays every record of w into s. Call it on a store that
// already holds the latest snapshot (or a fresh one if none exists),
// before AttachWAL and before serving traffic. Replayed mutations
// bypass the operation metrics and the commit log.
//
// Recovery runs the two halves of ApplyRecord as wal.Replay's two
// stages: the reader goroutine decodes each record while this one
// applies the records before it, in LSN order. The outcome — the
// store, the observer's calls, the counts and the error — is that of
// calling ApplyRecord on each record in turn.
func RecoverWAL(s *Store, w *wal.WAL) (WALRecovery, error) {
	if s.commitLog.Load() != nil {
		return WALRecovery{}, ErrCommitLogAttached
	}
	start := time.Now()
	n := 0
	err := wal.Replay(w, func(lsn uint64, typ byte, payload []byte) (*Mutation, error) {
		m, err := s.decodeRecord(typ, payload)
		if err != nil {
			return nil, fmt.Errorf("lsn %d: %w", lsn, err)
		}
		return m, nil
	}, func(lsn uint64, m *Mutation) error {
		if err := s.applyMutation(lsn, m); err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		n++
		return nil
	})
	return WALRecovery{Records: n, Duration: time.Since(start)}, err
}

// ApplyRecord decodes one WAL record — type byte and payload, read
// back from the local log or shipped by a replication leader — and
// applies it with the idempotent semantics documented at the top of
// this file, bypassing the operation metrics and the commit log. It
// is the one apply path of WAL recovery and of log-shipping
// replication; because
// application is idempotent, a re-shipped record (after a follower
// reconnect) simply converges. The documents of an insert are decoded
// straight into the stored form; only the records of a legacy gob log
// pass through maps.
//
// lsn is the record's WAL LSN (0 when unknown): replayed and
// replicated inserts fire the collection's ingest observer with it, so
// derived views (the series engine) recover in step with the store.
// Callers replaying a log must apply records in LSN order — observer
// ordering comes from the single apply goroutine, not from a lock.
func (s *Store) ApplyRecord(lsn uint64, typ byte, payload []byte) error {
	m, err := s.decodeRecord(typ, payload)
	if err != nil {
		return err
	}
	return s.applyMutation(lsn, m)
}

// decodeRecord is ApplyRecord's first half: it decodes a record into
// the mutation applyMutation takes. It reads nothing of the store but
// its shape cache, so it may run ahead of the apply, on another
// goroutine.
func (s *Store) decodeRecord(typ byte, payload []byte) (*Mutation, error) {
	m, err := decodeMutation(payload, &s.applyShapes)
	if err != nil {
		return nil, err
	}
	if m.Op == 0 {
		m.Op = MutationOp(typ)
	}
	return m, nil
}

// applyMutation is ApplyRecord's second half: it applies a decoded
// record and counts it by format.
func (s *Store) applyMutation(lsn uint64, m *Mutation) error {
	s.decoded[m.format].Add(1)
	switch m.Op {
	case OpInsert, OpInsertMany:
		c := s.Collection(m.Collection)
		c.packLegacy(m)
		for i := range m.packed {
			// Every document the store logs carries the id it is stored
			// under, which for a single insert is also the record's.
			id := m.packed[i].id()
			if id == "" || (m.Op == OpInsert && id != m.ID) {
				return fmt.Errorf("docstore: replay %s without its id", m.Op)
			}
			c.replayInsert(id, m.packed[i])
		}
		// One call for the whole record, mirroring live InsertMany: the
		// batch shares the record's LSN and must reach derived views as
		// a unit (see observer.go).
		if fn := c.obsFn(); fn != nil {
			fn(lsn, Batch{m.packed})
		}
	case OpUpdate:
		s.Collection(m.Collection).replayUpdate(m.ID, m.Fields)
	case OpUnset:
		s.Collection(m.Collection).replayUnset(m.ID, m.Names)
	case OpDelete:
		s.Collection(m.Collection).replayDelete(m.ID)
	case OpDrop:
		s.mu.Lock()
		delete(s.collections, m.Collection)
		s.mu.Unlock()
	case OpEnsureIndex:
		if len(m.Names) != 1 {
			return errors.New("docstore: replay ensure-index without field")
		}
		s.Collection(m.Collection).EnsureIndex(m.Names[0])
	default:
		return fmt.Errorf("docstore: replay unknown mutation op %d", m.Op)
	}
	return nil
}

// packLegacy packs the documents of an insert or insert-many that was
// decoded from a gob record, which come as maps, so that replay applies
// one form.
func (c *Collection) packLegacy(m *Mutation) {
	if m.packed != nil {
		return
	}
	if m.Op == OpInsert {
		m.packed = []packed{c.shapes.pack(m.Doc, m.ID, false)}
		return
	}
	m.packed = make([]packed, len(m.Docs))
	for i, d := range m.Docs {
		id, _ := d[IDField].(string)
		m.packed[i] = c.shapes.pack(d, id, false)
	}
}

// replayInsert puts a recovered document. An id the snapshot already
// covers is replaced in place, preserving its insertion-order slot and
// without recounting it.
func (c *Collection) replayInsert(id string, p packed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	advanceIDCounter(id)
	if e, ok := c.docs[id]; ok {
		for _, ie := range c.indexList {
			ie.idx.remove(e, e.fieldKey(ie.field))
			ie.idx.add(e, p.fieldKey(ie.field))
		}
		e.packed = p
		return
	}
	c.appendLocked(id, p)
}

// replayUpdate merges recovered fields into an existing document; a
// missing id means a later (already snapshotted) delete won, so the
// record is skipped.
func (c *Collection) replayUpdate(id string, fields Doc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.docs[id]; ok {
		c.setLocked(e, fields)
	}
}

// replayUnset removes recovered fields from an existing document.
func (c *Collection) replayUnset(id string, fields []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.docs[id]; ok {
		c.unsetLocked(e, fields)
	}
}

// replayDelete removes a recovered document if it still exists.
func (c *Collection) replayDelete(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.docs[id]; ok {
		c.removeLocked(e)
	}
}
