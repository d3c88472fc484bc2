package docstore

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Snapshot persistence: the store serializes every collection
// (documents, insertion order, index definitions) to a gob stream, so
// a GoFlow server can stop and resume without losing the crowd's
// contributions. Writes go through a temp file + rename for crash
// safety.

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

type snapshot struct {
	Version     int
	Collections []collectionSnapshot
}

type collectionSnapshot struct {
	Name    string
	Order   []string
	Docs    map[string]Doc
	Indexes []string
	// Lifetime counters, so a restored store reports the same Stats as
	// one that never went through a snapshot. Absent (zero) in
	// snapshots written before they were added; Restore falls back to
	// the document count then.
	Inserted uint64
	Updated  uint64
}

func init() {
	// Document values are held behind `any`; gob needs the concrete
	// types registered. These are the kinds the store documents use.
	gob.Register(time.Time{})
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// Snapshot serializes the store. It takes consistent per-collection
// snapshots (not a global point-in-time cut; collections written
// later may include newer data — acceptable for the periodic-backup
// use case).
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion}
	for _, name := range s.Collections() {
		c := s.Collection(name)
		snap.Collections = append(snap.Collections, c.snapshot())
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	return nil
}

// snapshot captures one collection under its lock.
func (c *Collection) snapshot() collectionSnapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := collectionSnapshot{
		Name:     c.name,
		Docs:     make(map[string]Doc, len(c.docs)),
		Inserted: c.inserted,
		Updated:  c.updated,
	}
	out.Order = make([]string, 0, len(c.docs))
	for _, e := range c.order {
		if e.doc != nil {
			out.Docs[e.id] = cloneDoc(e.doc)
			out.Order = append(out.Order, e.id)
		}
	}
	for _, ie := range c.indexList {
		out.Indexes = append(out.Indexes, ie.field)
	}
	return out
}

// Restore loads a snapshot into the store, replacing any same-named
// collections.
func (s *Store) Restore(r io.Reader) error {
	return s.restore(r, false)
}

// RestoreExact loads a snapshot into the store and makes the store
// exactly the snapshot: collections not present in the snapshot are
// dropped, not merged around. It is the restore a replication follower
// uses when bootstrapping from a leader checkpoint — local state is
// untrusted, the snapshot is the whole truth. Ingest observers
// installed via SetIngestObserver survive (they are store-level, keyed
// by collection name).
func (s *Store) RestoreExact(r io.Reader) error {
	return s.restore(r, true)
}

func (s *Store) restore(r io.Reader, exact bool) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("docstore: snapshot version %d unsupported (want %d)", snap.Version, snapshotVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if exact {
		s.collections = make(map[string]*Collection, len(snap.Collections))
	}
	for _, cs := range snap.Collections {
		c := newCollection(cs.Name, s)
		c.order = make([]*entry, 0, len(cs.Order))
		for _, id := range cs.Order {
			if d, ok := cs.Docs[id]; ok {
				// The decoder gave us fresh memory; no defensive clone.
				e := &entry{seq: c.nextSeq, id: id, doc: d}
				c.nextSeq++
				c.docs[id] = e
				c.order = append(c.order, e)
				// Advance the process-wide id counter past every
				// restored auto-assigned id, so new inserts in this
				// process cannot collide with ids minted by the process
				// that wrote the snapshot.
				advanceIDCounter(id)
			}
		}
		c.inserted = cs.Inserted
		if c.inserted == 0 {
			// Legacy snapshot without counters: the document count is
			// the best lower bound.
			c.inserted = uint64(len(cs.Docs))
		}
		c.updated = cs.Updated
		// Indexes are not stored, only their fields: rebuild each from
		// the restored order.
		for _, field := range cs.Indexes {
			c.addIndexLocked(field)
		}
		s.collections[cs.Name] = c
	}
	return nil
}

// advanceIDCounter bumps the auto-id counter beyond an auto-assigned
// id ("d" + base36 counter); foreign id shapes are ignored.
func advanceIDCounter(id string) {
	if len(id) < 2 || id[0] != 'd' {
		return
	}
	n, err := strconv.ParseUint(id[1:], 36, 64)
	if err != nil {
		return
	}
	for {
		cur := _idCounter.Load()
		if cur >= n {
			return
		}
		if _idCounter.CompareAndSwap(cur, n) {
			return
		}
	}
}

// SaveFile writes the snapshot atomically to path: the stream goes to
// a temp file in the same directory, is fsynced, and replaces path by
// rename only after it is complete. A crash or write failure at any
// point leaves the previous snapshot untouched.
func (s *Store) SaveFile(path string) error {
	return s.SaveFileVia(path, nil)
}

// SaveFileVia is SaveFile with a writer middleware: when wrap is
// non-nil the snapshot stream passes through wrap(tempFile). It is
// the fault-injection seam the chaos tests use to prove that a torn
// or short write never corrupts the previous on-disk snapshot — the
// rename is skipped on any error, so path keeps its old contents.
func (s *Store) SaveFileVia(path string, wrap func(io.Writer) io.Writer) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".docstore-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() { _ = os.Remove(tmpName) }() // no-op after a successful rename
	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	if err := s.Snapshot(w); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("publish snapshot: %w", err)
	}
	// The rename published the snapshot against a process crash, but
	// only a directory fsync makes the new directory entry itself
	// durable: without it, power loss after the rename can roll the
	// directory back to the old (now unlinked) snapshot — or to
	// nothing at all on some filesystems.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync snapshot directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it survives power
// loss, not just process crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile loads a snapshot from path into the store.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open snapshot: %w", err)
	}
	defer func() { _ = f.Close() }()
	return s.Restore(f)
}
