package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// stableGoroutines samples the goroutine count until it stops
// shrinking (stdlib-only leak check, same idiom as internal/mq).
func stableGoroutines(t testing.TB) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur >= prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func openShard(t testing.TB, dir string) *storage.Local {
	t.Helper()
	l, err := storage.OpenLocal(storage.LocalOptions{
		WALDir:   dir,
		Policy:   wal.FsyncGrouped,
		NoAttach: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// testLeader is a leader at term 1 (unless the options say otherwise)
// with a test-only accept loop of its own: each connection's first
// frame is read and the session handed to the leader, the way
// Node.serveConn does for an elected one.
type testLeader struct {
	*leader
	ln net.Listener
	wg sync.WaitGroup
}

func startTestLeader(t testing.TB, local *storage.Local, opt leaderOptions) *testLeader {
	t.Helper()
	if opt.Term == 0 {
		opt.Term = 1
	}
	if opt.Heartbeat == 0 {
		opt.Heartbeat = 25 * time.Millisecond
	}
	l, err := newLeader(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &testLeader{leader: l, ln: ln}
	tl.wg.Add(1)
	go func() {
		defer tl.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			tl.wg.Add(1)
			go func() {
				defer tl.wg.Done()
				defer func() { _ = nc.Close() }()
				r := bufio.NewReader(nc)
				if first, _, err := mq.ReadReplFrame(r); err == nil {
					l.serveSession(nc, r, first)
				}
			}()
		}
	}()
	return tl
}

// addr is where followers dial the leader.
func (tl *testLeader) addr() string { return tl.ln.Addr().String() }

// Close stops accepting, ends the leader's sessions and closes its
// Local — the order Node.Close takes.
func (tl *testLeader) Close() error {
	_ = tl.ln.Close()
	tl.close()
	tl.wg.Wait()
	return tl.local.Close()
}

// startTestFollower starts a follower at term 1 over plain TCP with a
// 100ms retry, logging to the test, unless opt says otherwise.
func startTestFollower(t testing.TB, local *storage.Local, opt followerOptions) *follower {
	t.Helper()
	if opt.Term == 0 {
		opt.Term = 1
	}
	if opt.Dial == nil {
		opt.Dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	}
	if opt.RetryInterval == 0 {
		opt.RetryInterval = 100 * time.Millisecond
	}
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	f, err := startFollower(local, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// closeFollower stops f and closes its Local.
func closeFollower(f *follower) error {
	f.stop()
	return f.local.Close()
}

func waitCaughtUp(t testing.TB, f *follower, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.applied.Load() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, want %d", f.applied.Load(), lsn)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationCatchUpAndLiveTail: a follower joining late bulk-reads
// the leader's sealed history, then switches to the live tail; reads
// are served from the replica and writes rejected.
func TestReplicationCatchUpAndLiveTail(t *testing.T) {
	before := stableGoroutines(t)
	dir := t.TempDir()
	ldr := startTestLeader(t, openShard(t, filepath.Join(dir, "leader")), leaderOptions{})
	lw := ldr.local

	// History written before the follower exists: catch-up path.
	lw.EnsureIndex("obs", "device")
	for i := 0; i < 200; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"device": fmt.Sprintf("d%d", i%5), "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	f := startTestFollower(t, openShard(t, filepath.Join(dir, "follower")), followerOptions{Name: "f1", Addr: ldr.addr()})
	waitCaughtUp(t, f, lw.WAL().LastLSN())

	// The replica serves reads, and the engine of a node with no leader
	// in it refuses writes.
	eng := (&Node{local: f.local}).Engine()
	if n, err := eng.CountContext(t.Context(), "obs", nil); err != nil || n != 200 {
		t.Fatalf("replica count = %d, %v; want 200", n, err)
	}
	if _, err := eng.Insert("obs", storage.Doc{"device": "dX"}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("write on follower = %v, want ErrNotLeader", err)
	}

	// Live tail: new writes stream without a reconnect.
	for i := 200; i < 300; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"device": "live", "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, f, lw.WAL().LastLSN())
	if n, _ := eng.CountContext(t.Context(), "obs", storage.Doc{"device": "live"}); n != 100 {
		t.Fatalf("replica missed live-tail docs: %d/100", n)
	}
	// The leader has learned the follower's progress.
	if acked := ldr.acks.get("f1"); acked == 0 {
		t.Fatal("leader never saw a follower ack")
	}

	if err := closeFollower(f); err != nil {
		t.Fatal(err)
	}
	if err := ldr.Close(); err != nil {
		t.Fatal(err)
	}
	if after := stableGoroutines(t); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestFollowerRestartResumes: a follower that shuts down and reopens
// its local state resumes shipping from its own durable position
// instead of refetching history.
func TestFollowerRestartResumes(t *testing.T) {
	dir := t.TempDir()
	ldr := startTestLeader(t, openShard(t, filepath.Join(dir, "leader")), leaderOptions{})
	defer func() { _ = ldr.Close() }()
	lw := ldr.local
	for i := 0; i < 100; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	fdir := filepath.Join(dir, "follower")
	f := startTestFollower(t, openShard(t, fdir), followerOptions{Name: "f1", Addr: ldr.addr()})
	waitCaughtUp(t, f, lw.WAL().LastLSN())
	resumeFrom := f.applied.Load()
	if err := closeFollower(f); err != nil {
		t.Fatal(err)
	}

	// Leader keeps writing while the follower is down.
	for i := 100; i < 150; i++ {
		if _, err := lw.Insert("obs", storage.Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	f2 := startTestFollower(t, openShard(t, fdir), followerOptions{Name: "f1", Addr: ldr.addr()})
	defer func() { _ = closeFollower(f2) }()
	if got := f2.applied.Load(); got != resumeFrom {
		t.Fatalf("restarted follower resumed at lsn %d, want its durable %d", got, resumeFrom)
	}
	waitCaughtUp(t, f2, lw.WAL().LastLSN())
	if n, _ := f2.local.CountContext(t.Context(), "obs", nil); n != 150 {
		t.Fatalf("restarted replica count = %d, want 150", n)
	}
}

// TestSyncReplicationAcks: with SyncFollowers=1, a write acknowledges
// only after the follower has durably applied it; with the follower
// gone, writes time out unacknowledged.
func TestSyncReplicationAcks(t *testing.T) {
	dir := t.TempDir()
	ldr := startTestLeader(t, openShard(t, filepath.Join(dir, "leader")), leaderOptions{
		SyncFollowers: 1,
		AckTimeout:    300 * time.Millisecond,
	})
	defer func() { _ = ldr.Close() }()
	lw := ldr.local
	f := startTestFollower(t, openShard(t, filepath.Join(dir, "follower")), followerOptions{Name: "f1", Addr: ldr.addr()})

	id, err := lw.Insert("obs", storage.Doc{"device": "d1"})
	if err != nil {
		t.Fatalf("sync insert with live follower: %v", err)
	}
	// The ack implies the follower durably has the record.
	if f.applied.Load() < lw.WAL().LastLSN() {
		t.Fatalf("insert acked at leader lsn %d but follower applied only %d", lw.WAL().LastLSN(), f.applied.Load())
	}
	if _, err := f.local.Get("obs", id); err != nil {
		t.Fatalf("acked doc missing on follower: %v", err)
	}

	// No follower: the quorum cannot form and the write must not be
	// acknowledged.
	f.stop()
	if _, err := lw.Insert("obs", storage.Doc{"device": "d2"}); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("insert without follower = %v, want ErrAckTimeout", err)
	}
	_ = closeFollower(f)
}

// TestLeaderCheckpointRetainsFollowerTail: a leader checkpoint must
// not truncate WAL segments a known lagging follower still needs.
func TestLeaderCheckpointRetainsFollowerTail(t *testing.T) {
	dir := t.TempDir()
	local, err := storage.OpenLocal(storage.LocalOptions{
		WALDir:       filepath.Join(dir, "leader"),
		Policy:       wal.FsyncGrouped,
		NoAttach:     true,
		SegmentBytes: 1, // every flush seals a segment: truncation-friendly
	})
	if err != nil {
		t.Fatal(err)
	}
	ldr := startTestLeader(t, local, leaderOptions{})
	defer func() { _ = ldr.Close() }()

	for i := 0; i < 50; i++ {
		if _, err := local.Insert("obs", storage.Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	// A follower that acked exactly LSN 10 and then went silent —
	// spoken by hand over the wire protocol so the stall point is
	// deterministic (a real Follower keeps fetching until caught up).
	const acked = 10
	nc, err := net.Dial("tcp", ldr.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{Op: mq.ReplOpHello, Follower: "slow"}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, _, err := mq.ReadReplFrame(br); err != nil {
		t.Fatal(err)
	}
	if _, err := mq.WriteReplFrame(nc, &mq.ReplFrame{
		Op: mq.ReplOpFetch, From: acked + 1, AppliedLSN: acked, MaxRecords: 10, Term: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Once the batch reply arrives, the leader has recorded the ack.
	if batch, _, err := mq.ReadReplFrame(br); err != nil || batch.Op != mq.ReplOpBatch {
		t.Fatalf("fetch reply: %v %v", batch, err)
	}
	if got := ldr.acks.get("slow"); got != acked {
		t.Fatalf("leader tracked ack %d, want %d", got, acked)
	}

	if err := local.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything past the stalled follower's ack must still be readable.
	recs, err := local.WAL().ReadFrom(acked+1, 1000, 1<<20)
	if err != nil {
		t.Fatalf("post-checkpoint catch-up read: %v", err)
	}
	if len(recs) == 0 || recs[0].LSN != acked+1 {
		t.Fatalf("checkpoint truncated the follower's tail: read %d records from lsn %d", len(recs), acked+1)
	}
}

func (a *ackTracker) get(name string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked[name]
}
