package series

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"github.com/urbancivics/goflow/internal/fsys"
)

// Persistence. A checkpoint publishes three kinds of file under Dir:
//
//	chunks/<part>-<seq>.chk   one per sealed chunk, written once
//	                          (chunks are immutable), or twice for a
//	                          chunk Open read in the interleaved layout
//	                          — the rewrite holds the same points, so
//	                          whichever version a crash leaves is valid
//	rollups-<epoch>.gob       the continuous aggregates + watermark
//	manifest.gob              the commit point: chunk list, rollups
//	                          file name, watermark, retention floor
//
// Every file is a CRC-framed payload written to a temp file and
// renamed into place; the manifest rename is the atomic commit. A
// crash mid-checkpoint leaves the previous manifest referencing only
// previous files (the rollups file is epoch-named, never overwritten,
// exactly so a half-finished checkpoint cannot clobber the one the
// live manifest points at). Stray files from failed checkpoints are
// swept on Open.
//
// Ordering with the engine checkpoint (storage.Local): the WAL is
// rotated first, then the docstore snapshot saved, then this
// checkpoint, and the WAL is truncated only after all three succeed —
// so every observation the persisted watermark does not cover is
// still in the log and re-fed on recovery. Recovery order is the
// mirror: load snapshot, Open the series, replay the WAL tail through
// the ingest observer (Append drops LSNs at or below the watermark),
// then attach.

// frame layout: magic | payload len | crc32c(payload) | payload.
var frameMagic = [4]byte{'S', 'E', 'R', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	manifestName = "manifest.gob"
	chunksDir    = "chunks"
)

// manifest is the checkpoint commit record.
type manifest struct {
	Epoch          uint64
	Watermark      uint64
	RetentionFloor int64
	Points         uint64
	RollupsFile    string
	Chunks         []chunkRef
}

// chunkRef names one persisted chunk.
type chunkRef struct {
	Part int64
	Seq  int
}

func (r chunkRef) file() string { return fmt.Sprintf("%016x-%06d.chk", uint64(r.Part), r.Seq) }

// chunkFile is the on-disk form of a Chunk.
type chunkFile struct {
	Part           int64
	Seq            int
	Count          int
	MinTS, MaxTS   int64
	MinVal, MaxVal float64
	// Runs is the run table; Data holds the runs' streams back to back
	// in table order.
	Runs []runFile
	// Zones is set only in files written before runs existed, whose
	// Data is one stream of every zone's points in append order, each
	// point's two deltas followed by its uvarint index into Zones.
	Zones []string
	Data  []byte
}

// runFile is one run table entry: a Run less its stream.
type runFile struct {
	Zone         string
	Count        int
	MinTS, MaxTS int64
	// Len is the stream's length in bytes.
	Len int
}

// file is the chunk's on-disk form.
func (c *Chunk) file() *chunkFile {
	cf := &chunkFile{
		Part: c.Part, Seq: c.Seq, Count: c.Count,
		MinTS: c.MinTS, MaxTS: c.MaxTS,
		MinVal: c.MinVal, MaxVal: c.MaxVal,
		Runs: make([]runFile, len(c.Runs)),
		Data: make([]byte, 0, c.bytes()),
	}
	for i, r := range c.Runs {
		cf.Runs[i] = runFile{Zone: r.Zone, Count: r.Count, MinTS: r.MinTS, MaxTS: r.MaxTS, Len: len(r.Data)}
		cf.Data = append(cf.Data, r.Data...)
	}
	return cf
}

// decodeChunkFile parses the payload of one chunk file. It decodes
// every point and re-encodes them into a fresh chunk: a file in the run
// layout must be exactly what that gives back — run table, streams and
// header — or it is an error, so a table that disagrees with its bytes
// never reaches a query. A file written before runs existed
// (interleaved, no table) comes back in the run layout, legacy set so
// the caller writes it out again.
func decodeChunkFile(body []byte) (ch *Chunk, legacy bool, err error) {
	var cf chunkFile
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&cf); err != nil {
		return nil, false, fmt.Errorf("decode: %w", err)
	}
	if cf.Count <= 0 {
		return nil, false, fmt.Errorf("chunk %d/%d: %d points", cf.Part, cf.Seq, cf.Count)
	}
	b := newChunkBuilder(cf.Part)
	legacy = len(cf.Runs) == 0
	if legacy {
		err = legacyPoints(&cf, b.put)
	} else {
		err = runPoints(&cf, b.put)
	}
	if err != nil {
		return nil, false, fmt.Errorf("chunk %d/%d: %w", cf.Part, cf.Seq, err)
	}
	ch = b.seal(cf.Seq)
	if !legacy && !reflect.DeepEqual(ch.file(), &cf) {
		return nil, false, fmt.Errorf("chunk %d/%d: run table disagrees with its data", cf.Part, cf.Seq)
	}
	return ch, legacy, nil
}

// runPoints decodes a run-layout file's streams, calling put once per
// point, run by run.
func runPoints(cf *chunkFile, put func(ts, centi int64, zone string)) error {
	data := cf.Data
	for _, rf := range cf.Runs {
		if rf.Len < 0 || rf.Len > len(data) {
			return fmt.Errorf("zone %q: run of %d bytes past the data's end", rf.Zone, rf.Len)
		}
		r := Run{Zone: rf.Zone, Count: rf.Count, Data: data[:rf.Len]}
		if err := r.each(cf.Part, func(ts, centi int64) { put(ts, centi, r.Zone) }); err != nil {
			return err
		}
		data = data[rf.Len:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%d bytes after the last run", len(data))
	}
	return nil
}

// legacyPoints decodes an interleaved file's stream, calling put once
// per point in append order.
func legacyPoints(cf *chunkFile, put func(ts, centi int64, zone string)) error {
	data := cf.Data
	ts, delta, val := cf.Part, int64(0), int64(0)
	for i := 0; i < cf.Count; i++ {
		var f [3]uint64
		for j := range f {
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("truncated point %d", i)
			}
			f[j], data = v, data[n:]
		}
		if f[2] >= uint64(len(cf.Zones)) {
			return fmt.Errorf("zone index %d out of dictionary (%d) at point %d", f[2], len(cf.Zones), i)
		}
		delta += unzigzag(f[0])
		ts += delta
		val += unzigzag(f[1])
		put(ts, val, cf.Zones[f[2]])
	}
	if len(data) != 0 {
		return fmt.Errorf("%d bytes after point %d", len(data), cf.Count)
	}
	return nil
}

// rollupFile is the on-disk form of the continuous aggregates.
type rollupFile struct {
	Epoch   uint64
	Rollups map[string]map[int64]Agg
}

// readRollups reads the rollups file at path, which must belong to
// epoch. gob makes a map at the size the stream claims before it reads
// an entry, so the payload is walked once with the rollups skipped —
// a skipped map costs one byte at least per entry it claims, so a claim
// the file cannot back fails there — and only then decoded: no count
// larger than the file reaches an allocation.
func readRollups(path string, epoch uint64) (map[string]map[int64]Agg, error) {
	body, err := readFrame(path)
	if err != nil {
		return nil, err
	}
	var head struct{ Epoch uint64 }
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&head); err != nil {
		return nil, fmt.Errorf("series: rollups: decode: %w", err)
	}
	if head.Epoch != epoch {
		return nil, fmt.Errorf("series: rollups epoch %d != manifest epoch %d", head.Epoch, epoch)
	}
	var rf rollupFile
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rf); err != nil {
		return nil, fmt.Errorf("series: rollups: decode: %w", err)
	}
	return rf.Rollups, nil
}

// Open loads the DB persisted under opts.Dir (a fresh empty DB when
// nothing is there yet). A missing or corrupt rollups file is
// rebuilt from the chunks (lossy only when retention has already aged
// raw data out); a corrupt chunk file is a hard error, like a corrupt
// sealed WAL segment. Chunk files written before the run layout are
// converted to it here, once, and rewritten by the next checkpoint.
// Stray files from interrupted checkpoints are removed.
func Open(opts Options) (*DB, error) {
	db := New(opts)
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, chunksDir), 0o755); err != nil {
		return nil, fmt.Errorf("series: dir: %w", err)
	}
	var man manifest
	switch err := readGobFrame(filepath.Join(opts.Dir, manifestName), &man); {
	case err == nil:
	case os.IsNotExist(err):
		sweepStrays(opts.Dir, nil)
		return db, nil
	default:
		return nil, fmt.Errorf("series: manifest: %w", err)
	}
	db.epoch = man.Epoch
	db.watermark = man.Watermark
	db.retentionFloor = man.RetentionFloor
	db.points = man.Points
	for _, ref := range man.Chunks {
		body, err := readFrame(filepath.Join(opts.Dir, chunksDir, ref.file()))
		if err != nil {
			return nil, fmt.Errorf("series: chunk %s: %w", ref.file(), err)
		}
		ch, legacy, err := decodeChunkFile(body)
		if err == nil && (ch.Part != ref.Part || ch.Seq != ref.Seq) {
			err = fmt.Errorf("holds chunk %d/%d", ch.Part, ch.Seq)
		}
		if err != nil {
			return nil, fmt.Errorf("series: chunk %s: %w", ref.file(), err)
		}
		// A legacy chunk is rewritten in the run layout by the next
		// checkpoint, under the same name.
		ch.saved = !legacy
		pt := db.parts[ch.Part]
		if pt == nil {
			pt = &partition{start: ch.Part}
			db.parts[ch.Part] = pt
		}
		pt.sealed = append(pt.sealed, ch)
		if ch.Seq >= pt.nextSeq {
			pt.nextSeq = ch.Seq + 1
		}
	}
	// Seal order within a partition is append order; restore it in
	// case the manifest listed chunks out of order.
	for _, pt := range db.parts {
		sort.Slice(pt.sealed, func(i, j int) bool { return pt.sealed[i].Seq < pt.sealed[j].Seq })
	}
	rollups, rerr := readRollups(filepath.Join(opts.Dir, man.RollupsFile), man.Epoch)
	if rerr == nil {
		for zone, zm := range rollups {
			dst := make(map[int64]*cell, len(zm))
			for b, a := range zm {
				c := cellOf(&a)
				if c.hist != nil {
					db.spilled++
				}
				dst[b] = c
			}
			db.rollups[zone] = dst
		}
		db.resetMemosLocked()
	} else {
		db.rebuildRollupsLocked()
		db.rebuilds++
	}
	sweepStrays(opts.Dir, &man)
	return db, nil
}

// Checkpoint persists the DB state under Dir: seal the active
// builders, write the not-yet-persisted chunks, the rollups and then
// the manifest. A no-op without a Dir. With Retention configured, raw
// chunks past the retention horizon are dropped first.
func (db *DB) Checkpoint() error { return db.CheckpointVia(nil) }

// CheckpointVia is Checkpoint with every file write routed through
// wrap (nil = direct) — the seam the crash tests use to inject torn
// writes mid-checkpoint.
func (db *DB) CheckpointVia(wrap func(io.Writer) io.Writer) error {
	if db.opts.Dir == "" {
		return nil
	}
	start := time.Now()
	if db.opts.Retention > 0 {
		// The cutoff comes from the injected clock (Options.Now), not
		// the wall: simulated deployments age data on simulated time.
		db.ApplyRetention(db.now().Add(-db.opts.Retention))
	}

	db.mu.Lock()
	for _, pt := range db.parts {
		if pt.active != nil && pt.active.Count > 0 {
			db.sealLocked(pt)
		}
	}
	db.epoch++
	man := manifest{
		Epoch:          db.epoch,
		Watermark:      db.watermark,
		RetentionFloor: db.retentionFloor,
		Points:         db.points,
	}
	man.RollupsFile = fmt.Sprintf("rollups-%016x.gob", man.Epoch)
	var unsaved []*Chunk
	for _, pt := range db.sortedParts() {
		for _, ch := range pt.sealed {
			man.Chunks = append(man.Chunks, chunkRef{Part: ch.Part, Seq: ch.Seq})
			if !ch.saved {
				unsaved = append(unsaved, ch)
			}
		}
	}
	// Copy the cells under the lock — with their dense histograms,
	// which appends bump in place — and expand, encode and write them
	// off it: sealed chunks are immutable so only the aggregates need a
	// consistent snapshot.
	cells := make(map[string]map[int64]cell, len(db.rollups))
	for zone, zm := range db.rollups {
		dst := make(map[int64]cell, len(zm))
		for b, c := range zm {
			cp := *c
			if c.hist != nil {
				h := *c.hist
				cp.hist = &h
			}
			dst[b] = cp
		}
		cells[zone] = dst
	}
	db.mu.Unlock()

	rf := rollupFile{Epoch: man.Epoch, Rollups: make(map[string]map[int64]Agg, len(cells))}
	for zone, zm := range cells {
		dst := make(map[int64]Agg, len(zm))
		for b, c := range zm {
			dst[b] = c.agg()
		}
		rf.Rollups[zone] = dst
	}

	for _, ch := range unsaved {
		path := filepath.Join(db.opts.Dir, chunksDir, chunkRef{Part: ch.Part, Seq: ch.Seq}.file())
		if err := writeGobFrame(path, ch.file(), wrap); err != nil {
			return fmt.Errorf("series: chunk %d/%d: %w", ch.Part, ch.Seq, err)
		}
	}
	if err := writeGobFrame(filepath.Join(db.opts.Dir, man.RollupsFile), &rf, wrap); err != nil {
		return fmt.Errorf("series: rollups: %w", err)
	}
	if err := writeGobFrame(filepath.Join(db.opts.Dir, manifestName), &man, wrap); err != nil {
		return fmt.Errorf("series: manifest: %w", err)
	}

	// The manifest rename committed: mark the chunks persisted and
	// sweep files no checkpoint references anymore (aged-out chunks,
	// previous rollup epochs).
	db.mu.Lock()
	for _, ch := range unsaved {
		ch.saved = true
	}
	db.mu.Unlock()
	sweepStrays(db.opts.Dir, &man)
	if m := db.metrics.Load(); m != nil {
		m.ckptDur.ObserveDuration(time.Since(start))
		m.ckptChunks.Add(uint64(len(unsaved)))
	}
	return nil
}

// ResetTo discards every chunk, rollup and persisted file and restarts
// the DB empty with its watermark at lsn. It is the series half of a
// snapshot bootstrap: the follower's local view is superseded by the
// leader checkpoint, whose store contents are re-fed through the
// backfill scan (at LSN 0) after the reset, and whose log tail resumes
// above lsn. The manifest is deleted before the data files so a crash
// mid-reset leaves a fresh-looking directory, never a manifest
// referencing deleted chunks.
func (db *DB) ResetTo(lsn uint64) error {
	if db.opts.Dir != "" {
		if err := os.Remove(filepath.Join(db.opts.Dir, manifestName)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("series: reset manifest: %w", err)
		}
		if err := fsys.SyncDir(db.opts.Dir); err != nil {
			return fmt.Errorf("series: reset: %w", err)
		}
		sweepStrays(db.opts.Dir, nil)
	}
	db.mu.Lock()
	db.parts = make(map[int64]*partition)
	db.rollups = make(map[string]map[int64]*cell)
	db.spilled = 0
	db.resetMemosLocked()
	db.watermark = lsn
	db.retentionFloor = 0
	db.points = 0
	db.mu.Unlock()
	return nil
}

// sweepStrays removes files under dir that the manifest does not
// reference: temp files and half-written chunks of an interrupted
// checkpoint, rollup files of previous epochs, chunk files dropped by
// retention. With a nil manifest everything series-owned goes.
func sweepStrays(dir string, man *manifest) {
	keepChunks := make(map[string]bool)
	keepRollups := ""
	if man != nil {
		for _, ref := range man.Chunks {
			keepChunks[ref.file()] = true
		}
		keepRollups = man.RollupsFile
	}
	if entries, err := os.ReadDir(filepath.Join(dir, chunksDir)); err == nil {
		for _, e := range entries {
			if !keepChunks[e.Name()] {
				_ = os.Remove(filepath.Join(dir, chunksDir, e.Name()))
			}
		}
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			stray := (strings.HasPrefix(name, "rollups-") && name != keepRollups) ||
				strings.HasPrefix(name, ".series-")
			if stray {
				_ = os.Remove(filepath.Join(dir, name))
			}
		}
	}
}

// writeGobFrame writes a CRC-framed gob payload to path atomically:
// temp file in the same directory, optional writer middleware, fsync,
// rename, fsync the directory.
func writeGobFrame(path string, payload any, wrap func(io.Writer) io.Writer) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	body := buf.Bytes()
	var hdr [12]byte
	copy(hdr[0:4], frameMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(body, castagnoli))

	// The temp prefix is what sweepStrays recognises.
	return fsys.WriteFileAtomic(path, ".series-*.tmp", func(w io.Writer) error {
		if wrap != nil {
			w = wrap(w)
		}
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		if _, err := w.Write(body); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		return nil
	})
}

// readGobFrame reads and verifies a CRC-framed gob payload. Missing
// files return the raw os.IsNotExist-able error.
func readGobFrame(path string, out any) error {
	body, err := readFrame(path)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", filepath.Base(path), err)
	}
	return nil
}

// readFrame reads a CRC-framed file and returns its verified payload.
func readFrame(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 12 || !bytes.Equal(raw[0:4], frameMagic[:]) {
		return nil, fmt.Errorf("%s: bad frame header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(raw[4:8])
	sum := binary.LittleEndian.Uint32(raw[8:12])
	body := raw[12:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("%s: truncated payload (%d of %d bytes)", filepath.Base(path), len(body), n)
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%s: crc mismatch", filepath.Base(path))
	}
	return body, nil
}
