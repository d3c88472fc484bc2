package docstore

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/fsys"
)

// Snapshot persistence: the store serializes every collection
// (documents in insertion order, counters, index definitions) with the
// document codec, so a GoFlow server can stop and resume without
// losing the crowd's contributions. Writes go through a temp file +
// rename for crash safety. The file is
//
//	header = "\x00gfsnap" version uint32(collections) crc32c(the 12 bytes before)
//	block  = uint64(len(body)) crc32c(body) body        one per collection
//	body   = str(name) uvarint(inserted) uvarint(updated)
//	         uvarint(n) n*str(index field) uvarint(n) n*doc
//
// with one string dictionary per block, fixed-width integers
// little-endian and every checksum CRC-32C. A file that does not start
// with the magic is a snapshot from before the codec and is read as
// gob (see snapshot, the type).

const (
	snapshotMagic      = "\x00gfsnap"
	snapshotHeaderSize = len(snapshotMagic) + 1 + 4 + 4
	snapshotFrameSize  = 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshot is the gob-encoded whole-store snapshot every binary before
// the document codec wrote; kept for reading only.
type snapshot struct {
	Version     int
	Collections []collectionSnapshot
}

type collectionSnapshot struct {
	Name    string
	Order   []string
	Docs    map[string]Doc
	Indexes []string
	// Lifetime counters; absent (zero) in the oldest snapshots, where
	// the document count is the best lower bound.
	Inserted uint64
	Updated  uint64
}

func init() {
	// The legacy reader meets document values behind `any`; gob needs
	// the concrete types registered.
	gob.Register(time.Time{})
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// Snapshot serializes the store. It takes consistent per-collection
// snapshots (not a global point-in-time cut; collections written
// later may include newer data — acceptable for the periodic-backup
// use case). Two snapshots of equal stores are equal bytes.
func (s *Store) Snapshot(w io.Writer) error {
	names := s.Collections()
	// Not from the pool: a block's dictionary holds every id of the
	// collection, and would tax the small records that reused it.
	e := &encoder{dict: make(map[string]uint64)}
	head := append(make([]byte, 0, snapshotHeaderSize), snapshotMagic...)
	head = binary.LittleEndian.AppendUint32(append(head, codecVersion), uint32(len(names)))
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(head, castagnoli))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	for _, name := range names {
		e.reset()
		if err := s.Collection(name).encodeSnapshot(e); err != nil {
			return fmt.Errorf("encode snapshot: collection %q: %w", name, err)
		}
		frame := binary.LittleEndian.AppendUint64(make([]byte, 0, snapshotFrameSize), uint64(len(e.buf)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(e.buf, castagnoli))
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		if _, err := w.Write(e.buf); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
	}
	return nil
}

// encodeSnapshot writes the collection's block body straight from the
// stored documents, under the read lock.
func (c *Collection) encodeSnapshot(e *encoder) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e.str(c.name)
	e.uvarint(c.inserted)
	e.uvarint(c.updated)
	e.uvarint(uint64(len(c.indexList)))
	for _, ie := range c.indexList {
		e.str(ie.field)
	}
	e.uvarint(uint64(len(c.docs)))
	for _, en := range c.order {
		if !en.live() {
			continue
		}
		if err := e.packed(&en.packed); err != nil {
			return fmt.Errorf("document %q: %w", en.id(), err)
		}
	}
	return nil
}

// Restore loads a snapshot into the store, replacing any same-named
// collections. A snapshot that fails to decode (ErrCorrupt,
// ErrCodecVersion) leaves the store as it was.
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
	br := bufio.NewReader(r)
	var cols []*Collection
	var err error
	format := formatBin
	if head, _ := br.Peek(len(snapshotMagic)); string(head) == snapshotMagic {
		cols, err = s.readSnapshot(br)
	} else {
		format = formatGob
		cols, err = s.readLegacySnapshot(br)
	}
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if exact {
		s.collections = make(map[string]*Collection, len(cols))
	}
	for _, c := range cols {
		s.collections[c.name] = c
	}
	s.restored[format].Add(1)
	return nil
}

// readSnapshot decodes a codec snapshot into detached collections.
func (s *Store) readSnapshot(r *bufio.Reader) ([]*Collection, error) {
	var head [snapshotHeaderSize]byte
	if err := readFull(r, head[:]); err != nil {
		return nil, err
	}
	fields, sum := head[:snapshotHeaderSize-4], head[snapshotHeaderSize-4:]
	if crc32.Checksum(fields, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return nil, corruptf("header checksum mismatch")
	}
	if v := head[len(snapshotMagic)]; v != codecVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrCodecVersion, v)
	}
	var cols []*Collection
	for n := binary.LittleEndian.Uint32(head[len(snapshotMagic)+1:]); n > 0; n-- {
		var frame [snapshotFrameSize]byte
		if err := readFull(r, frame[:]); err != nil {
			return nil, err
		}
		size := binary.LittleEndian.Uint64(frame[:8])
		// The body is read as it arrives, so a corrupt length cannot
		// size an allocation.
		body, err := io.ReadAll(io.LimitReader(r, int64(min(size, math.MaxInt64))))
		if err != nil {
			return nil, err
		}
		if uint64(len(body)) != size || crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(frame[8:]) {
			return nil, corruptf("collection block %d: short or checksum mismatch", len(cols))
		}
		c, err := s.decodeSnapshot(body)
		if err != nil {
			return nil, fmt.Errorf("collection block %d: %w", len(cols), err)
		}
		cols = append(cols, c)
	}
	if _, err := r.ReadByte(); err == nil {
		return nil, corruptf("trailing bytes")
	}
	return cols, nil
}

// readFull is io.ReadFull with a short input reported as corruption.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corruptf("truncated")
	}
	return err
}

// decodeSnapshot rebuilds one collection from its block body (the
// inverse of encodeSnapshot).
func (s *Store) decodeSnapshot(body []byte) (*Collection, error) {
	d := &decoder{b: body, seen: make(map[string]struct{})} // not from the pool; see Snapshot
	c := newCollection(d.str(posKey, nil).s, s)
	d.shapes = &c.shapes
	c.inserted, c.updated = d.uvarint(), d.uvarint()
	fields := make([]string, d.count(1))
	for i := 0; i < len(fields) && d.err == nil; i++ {
		fields[i] = d.str(posKey, nil).s
	}
	n := d.count(1)
	c.order = make([]*entry, 0, n)
	for ; n > 0 && d.err == nil; n-- {
		doc := d.stored()
		if d.err != nil {
			break
		}
		id := doc.id()
		if _, dup := c.docs[id]; dup || id == "" {
			d.fail("document %d: missing or repeated _id %q", len(c.order), id)
		}
		c.restoreLocked(id, doc)
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	// Indexes are not stored, only their fields: rebuild each from the
	// restored order.
	for _, f := range fields {
		c.addIndexLocked(f)
	}
	return c, nil
}

// restoreLocked appends a restored document without counting it as an
// insert. Caller owns the collection (it is not yet published).
func (c *Collection) restoreLocked(id string, p packed) {
	e := &entry{seq: c.nextSeq, packed: p}
	c.nextSeq++
	c.docs[id] = e
	c.order = append(c.order, e)
	// Advance the process-wide id counter past every restored
	// auto-assigned id, so new inserts in this process cannot collide
	// with ids minted by the process that wrote the snapshot.
	advanceIDCounter(id)
}

// readLegacySnapshot decodes a gob snapshot into detached collections.
func (s *Store) readLegacySnapshot(r io.Reader) ([]*Collection, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: not a codec snapshot and not a gob one: %v", ErrCorrupt, err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("%w: gob snapshot version %d", ErrCodecVersion, snap.Version)
	}
	cols := make([]*Collection, 0, len(snap.Collections))
	for _, cs := range snap.Collections {
		c := newCollection(cs.Name, s)
		c.order = make([]*entry, 0, len(cs.Order))
		for _, id := range cs.Order {
			if d, ok := cs.Docs[id]; ok {
				c.restoreLocked(id, c.shapes.pack(d, id, false)) // the decoder gave us fresh memory; no defensive clone
			}
		}
		c.inserted = cs.Inserted
		if c.inserted == 0 {
			c.inserted = uint64(len(cs.Docs))
		}
		c.updated = cs.Updated
		for _, field := range cs.Indexes {
			c.addIndexLocked(field)
		}
		cols = append(cols, c)
	}
	return cols, nil
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
	if err := fsys.WriteFileAtomic(path, ".docstore-*.tmp", func(w io.Writer) error {
		if wrap != nil {
			w = wrap(w)
		}
		return s.Snapshot(w)
	}); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	return nil
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
