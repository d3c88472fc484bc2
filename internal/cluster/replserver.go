package cluster

import (
	"bufio"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/wal"
)

// Leader side of the log-shipping protocol (see internal/mq/repl.go
// for the wire contract). One goroutine per follower connection; the
// stream is follower-driven pull, so the leader holds no per-follower
// send state beyond the ack tracker.
//
// Two session kinds arrive through the node's listener: a hello opens
// a fetch stream (log tailing), a snap opens a snapshot transfer
// (checkpoint streaming for a follower the truncated log can no longer
// serve). Node.serveConn reads the first frame and, while this node
// leads, hands the connection to serveSession.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// serveSession runs one replication session whose first frame has
// already been read: a fetch stream for hello, a snapshot transfer for
// snap. The connection is torn down on depose and close; otherwise the
// caller owns its lifecycle. It returns when the session ends.
func (l *leader) serveSession(nc net.Conn, r *bufio.Reader, first *mq.ReplFrame) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.conns[nc] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.conns, nc)
		l.mu.Unlock()
	}()
	switch first.Op {
	case mq.ReplOpHello:
		l.serveFetch(nc, r, first)
	case mq.ReplOpSnap:
		l.serveSnapshot(nc, first)
	}
}

// replError writes a typed error frame.
func replError(nc net.Conn, code, msg string, decorate func(*mq.ReplFrame)) {
	f := &mq.ReplFrame{Op: mq.ReplOpError, Code: code, Error: msg}
	if decorate != nil {
		decorate(f)
	}
	_, _ = mq.WriteReplFrame(nc, f)
}

// serveFetch is the fetch/batch stream: every fetch acks follower
// progress, every batch carries the leader's term and durable LSN.
func (l *leader) serveFetch(nc net.Conn, r *bufio.Reader, hello *mq.ReplFrame) {
	follower := hello.Follower
	if follower == "" {
		follower = nc.RemoteAddr().String()
	}
	if l.fenced.Load() {
		name, addr := l.hint()
		replError(nc, mq.ReplErrNotLeader, "leader deposed", func(f *mq.ReplFrame) {
			f.Term = l.term.Load()
			f.LeaderName, f.LeaderAddr = name, addr
		})
		return
	}
	w := l.local.WAL()
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
		Op: mq.ReplOpHello, Shard: hello.Shard, LeaderLSN: w.DurableLSN(), Term: l.term.Load(),
	}); err != nil {
		return
	}
	for {
		req, _, err := mq.ReadReplFrame(r)
		if err != nil || req.Op != mq.ReplOpFetch {
			return
		}
		// Term discipline. A fetch carrying a higher term proves a
		// newer election committed somewhere: this leader is deposed
		// and must fence before serving (or accepting) anything else.
		// A lower-term fetch is a follower that missed the election
		// that elected us; it adopts our term from the error frame.
		term := l.term.Load()
		if req.Term > term {
			l.depose(req.Term, "", "")
			replError(nc, mq.ReplErrStaleTerm, "leader deposed by higher term", func(f *mq.ReplFrame) {
				f.Term = req.Term
			})
			return
		}
		if req.Term < term {
			replError(nc, mq.ReplErrStaleTerm, "fetch from older term", func(f *mq.ReplFrame) {
				f.Term = term
			})
			return
		}
		if l.fenced.Load() {
			name, addr := l.hint()
			replError(nc, mq.ReplErrNotLeader, "leader deposed", func(f *mq.ReplFrame) {
				f.Term = l.term.Load()
				f.LeaderName, f.LeaderAddr = name, addr
			})
			return
		}
		// Every fetch is also an ack: the follower has durably applied
		// everything below AppliedLSN.
		l.acks.update(follower, req.AppliedLSN)
		// A fetch position above our log head means the follower holds
		// records we never had — a deposed ex-leader's unacked tail.
		// It must discard its log and bootstrap from a snapshot.
		if req.From > w.LastLSN()+1 {
			replError(nc, mq.ReplErrDiverged, "fetch position beyond leader log", func(f *mq.ReplFrame) {
				f.LeaderLSN = w.DurableLSN()
			})
			return
		}
		maxRecs, maxBytes := req.MaxRecords, req.MaxBytes
		if maxRecs <= 0 || maxRecs > maxBatchRecords {
			maxRecs = maxBatchRecords
		}
		if maxBytes <= 0 || maxBytes > maxBatchBytes {
			maxBytes = maxBatchBytes
		}
		recs, err := l.readBatch(req.From, maxRecs, maxBytes)
		if err != nil {
			l.writeFetchError(nc, err)
			return
		}
		batch := &mq.ReplFrame{Op: mq.ReplOpBatch, LeaderLSN: w.DurableLSN(), Term: l.term.Load()}
		var payloadBytes int
		for _, rec := range recs {
			batch.Records = append(batch.Records, mq.ReplRecord{LSN: rec.LSN, Type: rec.Type, Payload: rec.Payload})
			payloadBytes += len(rec.Payload)
		}
		if _, err := mq.WriteReplFrame(nc, batch); err != nil {
			return
		}
		if m := l.opt.Metrics; m != nil {
			m.ShippedBatches.Inc()
			m.ShippedRecords.Add(uint64(len(recs)))
			m.ShippedBytes.Add(uint64(payloadBytes))
		}
	}
}

// writeFetchError maps a WAL read failure onto the wire: a truncated
// position tells the follower to snapshot-bootstrap (with the LSN the
// leader's checkpoint covers), a corrupt sealed segment is localized
// by file and offset, anything else is opaque.
func (l *leader) writeFetchError(nc net.Conn, err error) {
	var corrupt *wal.CorruptionError
	switch {
	case errors.Is(err, wal.ErrTruncated):
		replError(nc, mq.ReplErrTruncated, err.Error(), func(f *mq.ReplFrame) {
			f.SnapLSN = l.local.CheckpointLSN()
		})
	case errors.As(err, &corrupt):
		replError(nc, mq.ReplErrCorrupt, err.Error(), func(f *mq.ReplFrame) {
			f.Segment = corrupt.Segment
			f.Offset = corrupt.Offset
		})
	default:
		replError(nc, "", err.Error(), nil)
	}
}

// serveSnapshot streams the latest checkpoint from the requested byte
// offset in CRC-framed chunks. The file handle stays open across the
// whole transfer, so a concurrent checkpoint renaming a newer snapshot
// into place cannot tear this one mid-stream; the follower detects a
// changed snapshot between resumed sessions by SnapLSN/SnapSize and
// restarts from offset 0.
func (l *leader) serveSnapshot(nc net.Conn, req *mq.ReplFrame) {
	if l.fenced.Load() {
		name, addr := l.hint()
		replError(nc, mq.ReplErrNotLeader, "leader deposed", func(f *mq.ReplFrame) {
			f.LeaderName, f.LeaderAddr = name, addr
		})
		return
	}
	f, lsn, size, err := l.local.ExportSnapshot()
	if err != nil {
		replError(nc, mq.ReplErrNoSnapshot, err.Error(), nil)
		return
	}
	defer func() { _ = f.Close() }()
	offset := req.Offset
	if offset < 0 || offset > size {
		offset = 0
	}
	buf := make([]byte, l.opt.SnapChunkBytes)
	for offset < size {
		n, err := f.ReadAt(buf, offset)
		if n == 0 {
			if err != nil && err != io.EOF {
				replError(nc, "", err.Error(), nil)
			}
			return
		}
		chunk := buf[:n]
		if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
			Op:      mq.ReplOpSnapChunk,
			Offset:  offset,
			Data:    chunk,
			CRC:     crc32.Checksum(chunk, crcTable),
			SnapLSN: lsn, SnapSize: size,
		}); err != nil {
			return
		}
		offset += int64(n)
		if m := l.opt.Metrics; m != nil {
			m.SnapshotBytes.Add(uint64(n))
		}
	}
	// Zero-length snapshots still need the follower to learn SnapLSN
	// and SnapSize; send one empty terminal chunk.
	if size == 0 {
		_, _ = mq.WriteReplFrame(nc, &mq.ReplFrame{
			Op: mq.ReplOpSnapChunk, SnapLSN: lsn, SnapSize: 0,
		})
	}
}

// readBatch reads records from the WAL starting at from, long-polling
// up to the heartbeat interval when the follower is caught up. The
// notify channel is armed before the read, so a commit landing between
// the read and the wait cannot be missed.
func (l *leader) readBatch(from uint64, maxRecs, maxBytes int) ([]wal.Record, error) {
	w := l.local.WAL()
	deadline := time.Now().Add(l.opt.Heartbeat)
	for {
		notify := w.DurableNotify()
		recs, err := w.ReadFrom(from, maxRecs, maxBytes)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			return recs, nil
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, nil // heartbeat: empty batch
		}
		timer := time.NewTimer(wait)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		}
	}
}
