package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/wal"
)

// Local is the single-node storage engine: a docstore.Store with an
// optional write-ahead log and snapshot checkpointing. It is the exact
// store + WAL + checkpoint wiring goflow-server has always run —
// extracted behind the Engine seam so the cluster layer can stack N of
// them as shards and replicate their logs.
type Local struct {
	store *docstore.Store
	wal   *wal.WAL
	// snapshotPath is where Checkpoint publishes snapshots:
	// <WALDir>/snapshot.gob, or "" without a WAL.
	snapshotPath string

	// series is the optional time-partitioned view with continuous
	// aggregates, fed by the ingest observer on seriesCollection (see
	// series.go in this package).
	series *series.DB

	// checkpointMu serializes Checkpoint so an interval loop, a
	// triggered job and shutdown never interleave rotate/save/truncate.
	checkpointMu sync.Mutex

	// truncateBound, when set, caps how far Checkpoint truncates the
	// WAL. A replicated shard leader sets it to the slowest follower's
	// acknowledged LSN so a lagging follower can always catch up from
	// the log instead of needing a snapshot transfer.
	truncateBound func() uint64

	// snapLSN is the highest LSN the published snapshot covers,
	// mirrored in the snapshot.gob.lsn sidecar (see snapshot.go). It is
	// what a leader advertises when a follower needs a snapshot
	// transfer instead of log catch-up.
	snapLSN atomic.Uint64
}

// LocalOptions configure OpenLocal.
type LocalOptions struct {
	// WALDir enables the write-ahead log in this directory, with the
	// snapshot Checkpoint publishes (and OpenLocal loads) beside it at
	// <WALDir>/snapshot.gob. Empty keeps the store memory-only.
	WALDir string
	// Policy is the WAL fsync policy (default grouped).
	Policy wal.FsyncPolicy
	// SegmentBytes overrides the WAL segment size (0 = default).
	SegmentBytes int64
	// NoAttach opens and recovers the WAL but leaves the store's
	// commit log detached. The cluster layer uses it to install its
	// own replication-aware commit log in place of the plain WAL one.
	NoAttach bool
	// Series enables the time-partitioned series view with continuous
	// aggregates. An empty Series.Dir with a WALDir defaults to
	// <WALDir>/series; with neither the series is memory-only
	// (rebuilt from the store on every boot).
	Series *SeriesOptions
}

// NewLocal wraps an existing store as an Engine with no persistence of
// its own — how a bare store is handed to goflow.NewServer (examples,
// the simulator, tests) when its durability is managed elsewhere (or
// not at all).
func NewLocal(store *docstore.Store) *Local {
	return &Local{store: store}
}

// OpenLocal builds a Local engine with full recovery: load the latest
// snapshot if one exists, replay the WAL tail on top, then attach the
// WAL so new mutations are journaled. This is the recovery order the
// durability model requires (snapshot first, log tail second, attach
// last) packaged behind one call.
func OpenLocal(opts LocalOptions) (*Local, error) {
	l := &Local{store: docstore.NewStore()}
	if opts.WALDir != "" {
		l.snapshotPath = filepath.Join(opts.WALDir, "snapshot.gob")
		if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: snapshot dir: %w", err)
		}
		switch err := l.store.LoadFile(l.snapshotPath); {
		case err == nil:
		case os.IsNotExist(errors.Unwrap(err)) || os.IsNotExist(err):
			// First boot: no snapshot yet.
		default:
			return nil, fmt.Errorf("storage: load snapshot: %w", err)
		}
		l.loadSnapLSN()
	}
	// Open the series view before WAL replay so the ingest observer
	// can re-feed it the log tail in LSN order. Two bootstrap shapes:
	//
	//   - A series with recovered state skips replayed records at or
	//     below its checkpointed watermark, so observing the replay
	//     re-feeds exactly the tail its checkpoint missed.
	//   - A fresh series over a store that already holds documents
	//     (series just enabled, or its directory lost) cannot tell
	//     which replayed records the snapshot also covers, so it is
	//     instead backfilled from the fully recovered store after
	//     replay and its watermark set to the log head.
	backfill := false
	if opts.Series != nil {
		so := opts.Series.Options
		if so.Dir == "" && opts.WALDir != "" {
			so.Dir = filepath.Join(opts.WALDir, "series")
		}
		sdb, err := series.Open(so)
		if err != nil {
			return nil, err
		}
		l.series = sdb
		st := sdb.Stats()
		fresh := st.Points == 0 && st.Watermark == 0
		snapHasDocs := l.store.Collection(seriesCollection).Stats().Docs > 0
		backfill = fresh && snapHasDocs
		if !backfill {
			l.observeSeries()
		}
	}
	if opts.WALDir != "" {
		w, err := wal.Open(opts.WALDir, wal.Options{Policy: opts.Policy, SegmentBytes: opts.SegmentBytes})
		if err != nil {
			return nil, err
		}
		if _, err := docstore.RecoverWAL(l.store, w); err != nil {
			_ = w.Close()
			return nil, fmt.Errorf("storage: wal recovery: %w", err)
		}
		l.wal = w
		if !opts.NoAttach {
			docstore.AttachWAL(l.store, w)
		}
	}
	if backfill {
		l.backfillSeries()
		if l.wal != nil {
			l.series.SetWatermark(l.wal.LastLSN())
		}
		l.observeSeries()
	}
	return l, nil
}

// Store exposes the underlying document store, for callers that need
// collections the Engine interface does not surface (metadata
// collections, metrics, commit-log seams).
func (l *Local) Store() *docstore.Store { return l.store }

// WAL exposes the engine's write-ahead log (nil when none is
// configured). The cluster layer ships its segments to followers.
func (l *Local) WAL() *wal.WAL { return l.wal }

// SnapshotPath returns where Checkpoint publishes snapshots ("" =
// none).
func (l *Local) SnapshotPath() string { return l.snapshotPath }

// SetTruncateBound caps how far Checkpoint truncates the WAL: segments
// holding records at or above bound() survive. Pass nil to clear.
func (l *Local) SetTruncateBound(bound func() uint64) {
	l.checkpointMu.Lock()
	l.truncateBound = bound
	l.checkpointMu.Unlock()
}

// Insert implements Engine.
func (l *Local) Insert(col string, doc Doc) (string, error) {
	return l.store.Collection(col).Insert(doc)
}

// InsertMany implements Engine.
func (l *Local) InsertMany(col string, docs []Doc) ([]string, error) {
	return l.store.Collection(col).InsertMany(docs)
}

// Get implements Engine.
func (l *Local) Get(col, id string) (Doc, error) {
	return l.store.Collection(col).Get(id)
}

// Update implements Engine.
func (l *Local) Update(col, id string, fields Doc) error {
	return l.store.Collection(col).Update(id, fields)
}

// Unset implements Engine.
func (l *Local) Unset(col, id string, fields ...string) error {
	return l.store.Collection(col).Unset(id, fields...)
}

// Delete implements Engine.
func (l *Local) Delete(col, id string) error {
	return l.store.Collection(col).Delete(id)
}

// DeleteMany implements Engine.
func (l *Local) DeleteMany(col string, filter Doc) (int, error) {
	return l.store.Collection(col).DeleteMany(filter)
}

// FindContext implements Engine.
func (l *Local) FindContext(ctx context.Context, col string, filter Doc, opts docstore.FindOptions) ([]Doc, error) {
	return l.store.Collection(col).FindContext(ctx, filter, opts)
}

// FindRows implements Engine.
func (l *Local) FindRows(ctx context.Context, col string, filter Doc, opts docstore.FindOptions) ([]docstore.Row, error) {
	return l.store.Collection(col).FindRowsContext(ctx, filter, opts)
}

// CountContext implements Engine.
func (l *Local) CountContext(ctx context.Context, col string, filter Doc) (int, error) {
	return l.store.Collection(col).CountContext(ctx, filter)
}

// EnsureIndex implements Engine.
func (l *Local) EnsureIndex(col, field string) {
	l.store.Collection(col).EnsureIndex(field)
}

// Collections implements Engine.
func (l *Local) Collections() []string { return l.store.Collections() }

// Stats implements Engine.
func (l *Local) Stats(col string) docstore.Stats {
	return l.store.Collection(col).Stats()
}

// Checkpoint implements Engine: rotate the WAL, publish a snapshot and
// truncate the sealed segments the snapshot covers (bounded by
// SetTruncateBound when replication needs history retained). Without a
// WAL there is nothing to publish, and only the series view (if any)
// checkpoints.
func (l *Local) Checkpoint() error {
	l.checkpointMu.Lock()
	defer l.checkpointMu.Unlock()
	if l.wal == nil {
		if l.series != nil {
			return l.series.Checkpoint()
		}
		return nil
	}
	cut, err := l.wal.Rotate()
	if err != nil {
		return fmt.Errorf("storage: wal rotate: %w", err)
	}
	if err := l.store.SaveFile(l.snapshotPath); err != nil {
		return err
	}
	// Publish the coverage sidecar before the truncation: the snapshot
	// covers every record below the rotation cut, and a crash landing
	// between snapshot and sidecar only leaves the claim stale-low,
	// which replay idempotence absorbs (see snapshot.go).
	if err := l.saveSnapLSN(cut - 1); err != nil {
		return err
	}
	// The series checkpoints after the snapshot and before the
	// truncation: SaveFile's read locks barrier every in-flight write
	// (whose observer fired in the same critical section that
	// assigned its LSN), so by now the series watermark covers every
	// observation record below the rotation cut — truncating those
	// segments cannot orphan rollup state. A series checkpoint
	// failure skips the truncation, keeping the tail replayable.
	if l.series != nil {
		if err := l.series.Checkpoint(); err != nil {
			return fmt.Errorf("storage: series checkpoint: %w", err)
		}
	}
	if l.truncateBound != nil {
		// bound is the lowest LSN a follower still needs minus one;
		// ^uint64(0) means "no constraint" and must not overflow.
		if b := l.truncateBound(); b != ^uint64(0) && b+1 < cut {
			cut = b + 1
		}
	}
	if _, err := l.wal.TruncateBefore(cut); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	return nil
}

// Close implements Engine: detach the commit log and close the WAL.
func (l *Local) Close() error {
	l.store.SetCommitLog(nil)
	if l.wal == nil {
		return nil
	}
	return l.wal.Close()
}

// ReplayInfo reports the last WAL recovery, for operator logs: the
// records replayed and the time from the first read to the last apply.
func (l *Local) ReplayInfo() (records int, d time.Duration) {
	if l.wal == nil {
		return 0, 0
	}
	st := l.wal.Stats()
	return st.ReplayedRecords, st.ReplayDuration
}
