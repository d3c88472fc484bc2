package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/urbancivics/goflow/internal/fsys"
)

// Snapshot export/import: the storage half of replication snapshot
// transfer. A leader whose checkpoint truncated the log past a
// follower's position exports its latest snapshot file; the follower
// imports it — store, WAL numbering and series view together — and
// resumes log tailing right above the LSN the snapshot covers.
//
// The covered LSN rides in a tiny sidecar next to the snapshot
// (snapshot.gob.lsn): Checkpoint writes it after the snapshot rename
// and before the WAL truncation. A crash between the two leaves a
// sidecar one checkpoint behind the snapshot — safe, because claiming
// too low an LSN only makes replay re-feed records the snapshot
// already holds, and docstore replay is idempotent; the truncation,
// which is what makes a too-high claim dangerous, never runs before
// the sidecar is durable.

// lsnSidecar returns the sidecar path for the engine's snapshot.
func (l *Local) lsnSidecar() string { return l.snapshotPath + ".lsn" }

// loadSnapLSN reads the sidecar on open. A missing, torn or
// unparseable sidecar degrades to 0 — "snapshot coverage unknown,
// assume nothing" — which at worst forces one fresh checkpoint before
// the first export.
func (l *Local) loadSnapLSN() {
	data, err := os.ReadFile(l.lsnSidecar())
	if err != nil {
		return
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return
	}
	l.snapLSN.Store(n)
}

// saveSnapLSN durably publishes the covered LSN (temp + rename +
// directory sync, like every other commit point in this package).
func (l *Local) saveSnapLSN(lsn uint64) error {
	if err := fsys.WriteFileAtomic(l.lsnSidecar(), ".snaplsn-*.tmp", func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", lsn)
		return err
	}); err != nil {
		return fmt.Errorf("storage: save snapshot lsn: %w", err)
	}
	l.snapLSN.Store(lsn)
	return nil
}

// CheckpointLSN returns the highest LSN the published snapshot covers
// (0 = no snapshot, or one from before coverage was tracked).
func (l *Local) CheckpointLSN() uint64 { return l.snapLSN.Load() }

// ExportSnapshot opens the engine's latest snapshot for streaming to a
// lagging follower, returning the open file, the LSN it covers and its
// size. The caller must close the file. When no coverage-tracked
// snapshot exists yet, a checkpoint is forced first. The file handle
// stays valid even if a concurrent checkpoint renames a newer snapshot
// over the path — the old inode lives until the handle closes — so a
// long transfer serves one consistent snapshot end to end.
func (l *Local) ExportSnapshot() (*os.File, uint64, int64, error) {
	if l.snapshotPath == "" {
		return nil, 0, 0, fmt.Errorf("storage: no snapshot path configured")
	}
	l.checkpointMu.Lock()
	_, statErr := os.Stat(l.snapshotPath)
	need := os.IsNotExist(statErr) || l.snapLSN.Load() == 0
	l.checkpointMu.Unlock()
	if need {
		if err := l.Checkpoint(); err != nil {
			return nil, 0, 0, fmt.Errorf("storage: checkpoint for export: %w", err)
		}
	}
	l.checkpointMu.Lock()
	defer l.checkpointMu.Unlock()
	f, err := os.Open(l.snapshotPath)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: open snapshot: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, 0, fmt.Errorf("storage: stat snapshot: %w", err)
	}
	return f, l.snapLSN.Load(), st.Size(), nil
}

// ImportSnapshot replaces the engine's entire state with the snapshot
// in stagingPath (a fully received, verified transfer), which covers
// every LSN up to and including lsn: the store is restored exactly
// (collections absent from the snapshot are dropped), the staging file
// is published as the local snapshot, the WAL restarts numbering at
// lsn+1, and the series view is rebuilt from the restored store. The
// caller must have quiesced writers — on a replication follower the
// commit log already rejects them. stagingPath must be on the same
// filesystem as the snapshot path (it is renamed into place).
//
// Crash ordering: the snapshot is published before the WAL reset, so
// an interrupted import leaves a store that recovers to the snapshot
// plus the old log tail — the old records are a prefix of the leader's
// history (or the node re-bootstraps anyway), and the next fetch
// renegotiates from whatever position recovery lands on.
func (l *Local) ImportSnapshot(stagingPath string, lsn uint64) error {
	l.checkpointMu.Lock()
	defer l.checkpointMu.Unlock()
	f, err := os.Open(stagingPath)
	if err != nil {
		return fmt.Errorf("storage: open staged snapshot: %w", err)
	}
	rerr := l.store.RestoreExact(f)
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return fmt.Errorf("storage: restore staged snapshot: %w", rerr)
	}
	if l.snapshotPath != "" {
		if err := os.Rename(stagingPath, l.snapshotPath); err != nil {
			return fmt.Errorf("storage: publish imported snapshot: %w", err)
		}
		if err := fsys.SyncDir(filepath.Dir(l.snapshotPath)); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		if err := l.saveSnapLSN(lsn); err != nil {
			return err
		}
	} else if err := os.Remove(stagingPath); err != nil {
		return fmt.Errorf("storage: remove staged snapshot: %w", err)
	}
	if l.wal != nil {
		// Reset refuses to run with appends pending, and under
		// FsyncNone the group-commit buffer drains asynchronously —
		// a pre-import write may still sit in it even though its
		// Insert returned. Those records are exactly the discarded
		// local history, so flush them to the doomed segments first.
		if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("storage: quiesce wal before import reset: %w", err)
		}
		if err := l.wal.Reset(lsn + 1); err != nil {
			return fmt.Errorf("storage: reset wal after import: %w", err)
		}
	}
	if l.series != nil {
		// The series view cannot tell which of its points the imported
		// snapshot supersedes, so it restarts from scratch: wipe it,
		// re-scan the restored store (at LSN 0, bypassing the
		// watermark), and tail the log above lsn from here on.
		if err := l.series.ResetTo(lsn); err != nil {
			return fmt.Errorf("storage: reset series after import: %w", err)
		}
		l.backfillSeries()
	}
	return nil
}
