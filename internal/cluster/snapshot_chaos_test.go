package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// dumpEngine renders an engine's entire document state canonically:
// one JSON line per doc, prefixed by its collection, sorted. Two
// engines with identical logical state produce byte-identical dumps
// regardless of iteration or arrival order. (Snapshot files are
// byte-stable too since the document codec; this dump stays as the
// independent reference.)
func dumpEngine(t *testing.T, eng storage.Engine) string {
	t.Helper()
	var lines []string
	for _, col := range eng.Collections() {
		docs, err := eng.FindContext(t.Context(), col, nil, docstore.FindOptions{})
		if err != nil {
			t.Fatalf("dump %s: %v", col, err)
		}
		// Replicas and elected nodes come through here: the row read each
		// of them serves is the same read, written out as the same bytes.
		rows, err := eng.FindRows(t.Context(), col, nil, docstore.FindOptions{})
		if err != nil || len(rows) != len(docs) {
			t.Fatalf("dump %s: %d rows for %d documents: %v", col, len(rows), len(docs), err)
		}
		for i, d := range docs {
			data, err := json.Marshal(d) // map marshal sorts keys
			if err != nil {
				t.Fatal(err)
			}
			if row, err := rows[i].AppendJSON(nil, nil); err != nil || string(row) != string(data) {
				t.Fatalf("dump %s: row %d is %s (%v), document %s", col, i, row, err, data)
			}
			lines = append(lines, col+"\t"+string(data))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// openSnapShard opens a Local tuned for truncation-heavy snapshot
// tests: every flush seals a WAL segment, so a checkpoint can actually
// drop history.
func openSnapShard(t testing.TB, dir string) *storage.Local {
	t.Helper()
	l, err := storage.OpenLocal(storage.LocalOptions{
		WALDir:       dir,
		Policy:       wal.FsyncGrouped,
		NoAttach:     true,
		SegmentBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSnapshotRejoinAfterTruncation: a follower that was offline while
// the leader checkpointed past its position cannot catch up from the
// log — it must bootstrap from a snapshot transfer, then resume
// tailing, and end byte-identical to a follower that replicated every
// record live.
func TestSnapshotRejoinAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	mts := NewMetrics(obs.NewRegistry())
	ldr := startTestLeader(t, openSnapShard(t, filepath.Join(dir, "leader")), leaderOptions{
		AckRetention: 100 * time.Millisecond,
		Metrics:      mts,
	})
	defer func() { _ = ldr.Close() }()
	lw := ldr.local

	for i := 0; i < 200; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"device": fmt.Sprintf("d%d", i%7), "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	fdir := filepath.Join(dir, "laggard")
	f1 := startTestFollower(t, openSnapShard(t, fdir), followerOptions{Name: "laggard", Addr: ldr.addr()})
	waitCaughtUp(t, f1, lw.WAL().LastLSN())
	if err := closeFollower(f1); err != nil {
		t.Fatal(err)
	}

	// History moves on while the follower is down; its ack entry
	// expires, so the checkpoint is free to truncate its tail away.
	for i := 200; i < 400; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"device": "late", "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond) // > AckRetention: the laggard's bound expires
	if err := lw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Prove the log really is gone below the checkpoint — otherwise
	// this test would silently degrade into a plain catch-up.
	if _, err := lw.WAL().ReadFrom(201, 10, 1<<20); err == nil {
		t.Fatal("leader retained the laggard's tail; checkpoint did not truncate")
	}

	f2 := startTestFollower(t, openSnapShard(t, fdir), followerOptions{Name: "laggard", Addr: ldr.addr(), Metrics: mts})
	defer func() { _ = closeFollower(f2) }()
	waitCaughtUp(t, f2, lw.WAL().LastLSN())
	if mts.SnapshotRestores.Value() == 0 {
		t.Fatal("rejoin did not go through a snapshot bootstrap")
	}
	if mts.SnapshotBytes.Value() == 0 {
		t.Fatal("leader served no snapshot bytes")
	}

	// The log tail above the snapshot still ships normally.
	for i := 400; i < 430; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"device": "tail", "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, f2, lw.WAL().LastLSN())
	if n, err := f2.local.CountContext(t.Context(), "obs", nil); err != nil || n != 430 {
		t.Fatalf("rejoined replica count = %d, %v; want 430", n, err)
	}

	// Byte-equality against a follower that never missed a record.
	fresh := startTestFollower(t, openSnapShard(t, filepath.Join(dir, "fresh")), followerOptions{Name: "fresh", Addr: ldr.addr()})
	defer func() { _ = closeFollower(fresh) }()
	waitCaughtUp(t, fresh, lw.WAL().LastLSN())
	if got, want := dumpEngine(t, f2.local), dumpEngine(t, fresh.local); got != want {
		t.Fatalf("snapshot-rejoined state differs from fresh replica:\nrejoined %d bytes, fresh %d bytes", len(got), len(want))
	}
}

// snoopConn records everything the follower writes, so the test can
// read the resume offset straight off the wire.
type snoopConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (c *snoopConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// sentFrames parses the captured stream back into replication frames.
func sentFrames(t *testing.T, mu *sync.Mutex, buf *bytes.Buffer) []*mq.ReplFrame {
	t.Helper()
	mu.Lock()
	data := append([]byte(nil), buf.Bytes()...)
	mu.Unlock()
	var frames []*mq.ReplFrame
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data[:4]))
		if len(data) < 4+n {
			break
		}
		var f mq.ReplFrame
		if err := json.Unmarshal(data[4:4+n], &f); err != nil {
			t.Fatalf("snooped frame: %v", err)
		}
		frames = append(frames, &f)
		data = data[4+n:]
	}
	return frames
}

// TestSnapshotTransferInterruptedResume is the seeded torn-transfer
// chaos test: a follower bootstrapping from a leader snapshot dies
// mid-download at a seed-chosen byte (torn staging write), restarts,
// and must resume the transfer from the staged offset — not from zero
// — then converge to a state byte-identical to a replica that never
// crashed. The resume is asserted on the wire: the restarted
// follower's snapshot request carries exactly the staged byte count.
//
// The damaged case flips one staged byte before the restart: the
// resumed stage completes but fails the import's checks, and the
// follower must discard it and download the snapshot again from zero
// rather than re-import the same bytes forever.
func TestSnapshotTransferInterruptedResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test; skipped in -short")
	}
	cases := []struct {
		seed    int64
		damaged bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {5, false}, {1, true}}
	for _, c := range cases {
		seed := c.seed
		name := fmt.Sprintf("seed=%d", seed)
		if c.damaged {
			name += ",damaged-stage"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mts := NewMetrics(obs.NewRegistry())
			ldr := startTestLeader(t, openSnapShard(t, filepath.Join(dir, "leader")), leaderOptions{
				SnapChunkBytes: 4096,
				Metrics:        mts,
			})
			defer func() { _ = ldr.Close() }()
			lw := ldr.local

			// Enough payload that the snapshot spans many chunks.
			for i := 0; i < 300; i++ {
				if _, err := lw.Insert("obs", storage.Doc{
					"device": fmt.Sprintf("dev-%03d", i%11),
					"seq":    i,
					"note":   strings.Repeat("x", 64),
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Checkpoint with no followers known: the whole log below the
			// snapshot is dropped, so any joiner must transfer.
			if err := lw.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(lw.SnapshotPath())
			if err != nil {
				t.Fatal(err)
			}
			size := int(st.Size())
			// A log tail above the snapshot, so the rejoin also proves the
			// snapshot-then-tail handoff.
			for i := 300; i < 320; i++ {
				if _, err := lw.Insert("obs", storage.Doc{"device": "tail", "seq": i}); err != nil {
					t.Fatal(err)
				}
			}

			// Attempt 1: tear the staging write at a seed-chosen byte in
			// the second half of the transfer, then "crash" the follower
			// before it can retry.
			budget := size/2 + int(seed*997)%(size/2-1)
			fdir := filepath.Join(dir, "joiner")
			// The first transfer attempt tears at the seeded byte; every
			// retry before the "crash" lands fails its first write, so the
			// stage is frozen exactly at the tear point until the restart.
			attempts := 0
			f1 := startTestFollower(t, openSnapShard(t, fdir), followerOptions{
				Name: "joiner", Addr: ldr.addr(),
				RetryInterval: 25 * time.Millisecond,
				WrapSnapshot: func(w io.Writer) io.Writer {
					attempts++
					if attempts == 1 {
						return faults.NewWriter(w, budget)
					}
					return faults.NewWriter(w, 0)
				},
			})
			staging := filepath.Join(fdir, filepath.Base(lw.SnapshotPath())+".incoming")
			deadline := time.Now().Add(10 * time.Second)
			for {
				if st, err := os.Stat(staging); err == nil && st.Size() >= int64(budget) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("torn transfer never staged %d bytes", budget)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err := closeFollower(f1); err != nil {
				t.Fatal(err)
			}
			st, err = os.Stat(staging)
			if err != nil {
				t.Fatal(err)
			}
			staged := st.Size()
			if staged <= 0 || staged >= int64(size) {
				t.Fatalf("staged %d bytes of %d; tear did not land mid-transfer", staged, size)
			}
			if c.damaged {
				flipByte(t, staging, staged/2)
			}

			// Attempt 2: restart on the same directory, snooping the wire.
			var mu sync.Mutex
			var sent bytes.Buffer
			f2 := startTestFollower(t, openSnapShard(t, fdir), followerOptions{
				Name: "joiner", Addr: ldr.addr(), Metrics: mts,
				Dial: func(addr string) (net.Conn, error) {
					nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
					if err != nil {
						return nil, err
					}
					return &snoopConn{Conn: nc, mu: &mu, buf: &sent}, nil
				},
			})
			defer func() { _ = closeFollower(f2) }()
			waitCaughtUp(t, f2, lw.WAL().LastLSN())
			if mts.SnapshotRestores.Value() != 1 {
				t.Fatalf("snapshot restores = %d, want 1", mts.SnapshotRestores.Value())
			}

			// The restarted follower asked the leader to resume at the
			// staged offset — the torn bytes were never re-transferred.
			// A damaged stage is then discarded and fetched from zero.
			var offsets []int64
			for _, f := range sentFrames(t, &mu, &sent) {
				if f.Op == mq.ReplOpSnap {
					offsets = append(offsets, f.Offset)
				}
			}
			want := []int64{staged}
			if c.damaged {
				want = append(want, 0)
			}
			if !slices.Equal(offsets, want) {
				t.Fatalf("snapshot request offsets = %v, want %v", offsets, want)
			}

			// Converged, and byte-identical to a replica that never tore.
			if n, err := f2.local.CountContext(t.Context(), "obs", nil); err != nil || n != 320 {
				t.Fatalf("rejoined replica count = %d, %v; want 320", n, err)
			}
			fresh := startTestFollower(t, openSnapShard(t, filepath.Join(dir, "fresh")), followerOptions{Name: "fresh", Addr: ldr.addr()})
			defer func() { _ = closeFollower(fresh) }()
			waitCaughtUp(t, fresh, lw.WAL().LastLSN())
			if got, want := dumpEngine(t, f2.local), dumpEngine(t, fresh.local); got != want {
				t.Fatalf("torn-and-resumed state differs from fresh replica:\nrejoined %d bytes, fresh %d bytes", len(got), len(want))
			}
		})
	}
}

// flipByte inverts the byte at off in the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}
