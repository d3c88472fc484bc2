package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/urbancivics/goflow/internal/mq"
)

// Follower side of snapshot transfer. A follower whose fetch position
// the leader can no longer serve from the log (checkpoint truncation,
// or a diverged ex-leader tail) downloads the leader's latest
// checkpoint chunk by chunk into a staging file and imports it through
// the storage engine's ImportSnapshot — store, WAL numbering and
// series view together — then resumes tailing right above the LSN the
// snapshot covers.
//
// Resumability: the staging file and a tiny JSON meta sidecar
// ({snapLsn, size}) survive connection faults and even follower
// restarts; the next attempt asks the leader to stream from the
// staged byte offset. If the leader checkpointed a different snapshot
// in between (meta mismatch), the stage is discarded and the transfer
// restarts from zero — chunk CRCs plus the total-size check make a
// torn or mixed stage impossible to import.

// snapMeta is the staging sidecar: which snapshot the staged bytes
// belong to.
type snapMeta struct {
	SnapLSN uint64 `json:"snapLsn"`
	Size    int64  `json:"size"`
}

// stagingPaths returns the staging file and meta sidecar paths.
func (f *follower) stagingPaths() (staging, meta string, ok bool) {
	base := f.local.SnapshotPath()
	if base == "" {
		return "", "", false
	}
	return base + ".incoming", base + ".incoming.meta", true
}

// bootstrapSnapshot runs one snapshot-transfer attempt: resume (or
// start) the download, and import when complete. A transfer error
// leaves the stage on disk for the next attempt to resume; a complete
// stage that fails to import is discarded, so the next attempt
// downloads it afresh instead of importing the same bytes forever.
func (f *follower) bootstrapSnapshot(ctx context.Context) error {
	staging, metaPath, ok := f.stagingPaths()
	if !ok {
		return fmt.Errorf("cluster: follower %s has no snapshot path; cannot bootstrap", f.opt.Name)
	}
	// Resume state: a meta sidecar plus staged bytes from an earlier
	// attempt.
	var meta snapMeta
	haveMeta := false
	if data, err := os.ReadFile(metaPath); err == nil {
		haveMeta = json.Unmarshal(data, &meta) == nil
	}
	var offset int64
	if haveMeta {
		if st, err := os.Stat(staging); err == nil {
			offset = st.Size()
		}
	} else {
		_ = os.Remove(staging) // stage without meta is unidentifiable
	}

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
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
		Op: mq.ReplOpSnap, Follower: f.opt.Name, Offset: offset, Term: f.term.Load(),
	}); err != nil {
		return err
	}
	r := bufio.NewReader(nc)

	out, err := os.OpenFile(staging, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: open staging file: %w", err)
	}
	if _, err := out.Seek(offset, io.SeekStart); err != nil {
		_ = out.Close()
		return fmt.Errorf("cluster: seek staging file: %w", err)
	}
	var w io.Writer = out
	if f.opt.WrapSnapshot != nil {
		w = f.opt.WrapSnapshot(out)
	}
	closed := false
	defer func() {
		if !closed {
			_ = out.Close()
		}
	}()

	total := meta.Size
	done := haveMeta && offset >= total
	for !done && ctx.Err() == nil {
		frame, _, err := mq.ReadReplFrame(r)
		if err != nil {
			return err
		}
		switch frame.Op {
		case mq.ReplOpSnapChunk:
		case mq.ReplOpError:
			return f.onLeaderError(frame)
		default:
			return fmt.Errorf("cluster: unexpected frame %q during snapshot transfer", frame.Op)
		}
		if haveMeta && (frame.SnapLSN != meta.SnapLSN || frame.SnapSize != meta.Size) {
			// The leader checkpointed a different snapshot since our
			// stage began; discard and restart from zero next attempt.
			_ = out.Close()
			closed = true
			_ = os.Remove(staging)
			_ = os.Remove(metaPath)
			return fmt.Errorf("cluster: leader snapshot changed mid-transfer (lsn %d→%d); restarting",
				meta.SnapLSN, frame.SnapLSN)
		}
		if !haveMeta {
			meta = snapMeta{SnapLSN: frame.SnapLSN, Size: frame.SnapSize}
			data, _ := json.Marshal(meta)
			if err := os.WriteFile(metaPath, data, 0o644); err != nil {
				return fmt.Errorf("cluster: write staging meta: %w", err)
			}
			haveMeta = true
			total = meta.Size
		}
		if len(frame.Data) > 0 {
			if crc32.Checksum(frame.Data, crcTable) != frame.CRC {
				return fmt.Errorf("cluster: snapshot chunk crc mismatch at offset %d", frame.Offset)
			}
			if frame.Offset != offset {
				return fmt.Errorf("cluster: snapshot chunk at offset %d, want %d", frame.Offset, offset)
			}
			n, err := w.Write(frame.Data)
			offset += int64(n)
			if err != nil {
				return fmt.Errorf("cluster: write snapshot chunk: %w", err)
			}
		}
		done = offset >= total
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err := out.Sync(); err != nil {
		return fmt.Errorf("cluster: sync staging file: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("cluster: close staging file: %w", err)
	}
	closed = true
	if st, err := os.Stat(staging); err != nil || st.Size() != total {
		return fmt.Errorf("cluster: staged snapshot incomplete (%v)", err)
	}

	if err := f.local.ImportSnapshot(staging, meta.SnapLSN); err != nil {
		_ = os.Remove(staging)
		_ = os.Remove(metaPath)
		return fmt.Errorf("cluster: import staged snapshot (lsn %d, %d bytes; stage discarded): %w", meta.SnapLSN, total, err)
	}
	_ = os.Remove(metaPath)
	f.applied.Store(meta.SnapLSN)
	if f.opt.Metrics != nil {
		f.opt.Metrics.SnapshotRestores.Inc()
	}
	if f.opt.OnSnapshot != nil {
		f.opt.OnSnapshot(meta.SnapLSN)
	}
	f.opt.Logf("cluster: follower %s: snapshot bootstrap complete at lsn %d (%d bytes)",
		f.opt.Name, meta.SnapLSN, total)
	return nil
}
