package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// promote does what Node.lead does with a won election: stop the
// follower, build a leader over its Local at the next term.
func promote(t testing.TB, f *follower) *leader {
	t.Helper()
	f.stop()
	l, err := newLeader(f.local, leaderOptions{Term: f.term.Load() + 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFailoverZeroAckedLoss is the headline durability claim of the
// replication design, proven under seeded chaos: a leader ingesting
// with a synchronous follower is partitioned mid-stream (the
// replication link black-holes at a seed-chosen point), in-flight
// writes stop being acknowledged, the leader is killed, the follower
// is promoted — and every write that WAS acknowledged is present on
// the promoted replica. Reproduce any failure with its subtest name:
// the fault schedule is a pure function of the seed.
func TestFailoverZeroAckedLoss(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			before := stableGoroutines(t)
			dir := t.TempDir()

			ldr := startTestLeader(t, openShard(t, filepath.Join(dir, "leader")), leaderOptions{
				SyncFollowers: 1,
				AckTimeout:    250 * time.Millisecond,
				Heartbeat:     5 * time.Millisecond,
			})
			// The replication link partitions after a seed-chosen number
			// of follower->leader writes (every fetch is one write, and
			// heartbeat polling burns the budget even between batches).
			inj := faults.New(seed, faults.Plan{
				PartitionAfterWrites: 10 + int(seed%25),
			})
			f := startTestFollower(t, openShard(t, filepath.Join(dir, "follower")), followerOptions{
				Name: "f1", Addr: ldr.addr(),
				Dial:          inj.Dialer(nil),
				RetryInterval: 24 * time.Hour, // one session: a partitioned link stays dead
			})

			// Ingest until the partition bites: writers record every
			// acknowledged id and stop at the first unacknowledged write
			// (the leader is, from their point of view, dying).
			var (
				mu    sync.Mutex
				acked []string
			)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 400; i++ {
						id, err := ldr.local.Insert("obs", storage.Doc{
							"device": fmt.Sprintf("w%d-d%d", w, i%3),
							"seq":    i,
						})
						if err != nil {
							if !errors.Is(err, ErrAckTimeout) {
								t.Errorf("writer %d: unexpected error %v", w, err)
							}
							return
						}
						mu.Lock()
						acked = append(acked, id)
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(acked) == 0 {
				t.Fatal("no write was ever acknowledged; setup is broken")
			}
			if inj.Counts().Partitions == 0 {
				t.Skipf("seed %d: ingest finished before the partition fired (%d acked)", seed, len(acked))
			}

			// Leader is dead. Promote the replica and verify the
			// acknowledged history survived, then that it takes writes.
			_ = ldr.Close()
			promoted := promote(t, f)
			eng := promoted.local
			for _, id := range acked {
				if _, err := eng.Get("obs", id); err != nil {
					t.Fatalf("acked doc %s lost in failover: %v", id, err)
				}
			}
			if _, err := eng.Insert("obs", storage.Doc{"device": "post-failover"}); err != nil {
				t.Fatalf("promoted replica rejects writes: %v", err)
			}
			t.Logf("seed %d: %d acked writes, %d injected partitions, all survived",
				seed, len(acked), inj.Counts().Partitions)

			promoted.close()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if after := stableGoroutines(t); after > before+2 {
				t.Fatalf("goroutine leak: %d before, %d after", before, after)
			}
		})
	}
}

// TestShardedFailover runs the same failure through the full stack: a
// 2-shard router whose shard 0 is a replicated leader. Shard 0's
// leader dies mid-ingest; its follower is promoted and swapped into a
// rebuilt router; every acknowledged batch is intact cluster-wide.
func TestShardedFailover(t *testing.T) {
	const seed = 11
	dir := t.TempDir()

	ldr0 := startTestLeader(t, openShard(t, filepath.Join(dir, "s0-leader")), leaderOptions{
		SyncFollowers: 1,
		AckTimeout:    250 * time.Millisecond,
		Heartbeat:     5 * time.Millisecond,
	})
	inj := faults.New(seed, faults.Plan{PartitionAfterWrites: 12})
	f0 := startTestFollower(t, openShard(t, filepath.Join(dir, "s0-follower")), followerOptions{
		Name: "s0-f1", Addr: ldr0.addr(),
		Dial:          inj.Dialer(nil),
		RetryInterval: 24 * time.Hour,
	})
	// Shard 1 is unreplicated in this test; attach its WAL directly.
	shard1, err := storage.OpenLocal(storage.LocalOptions{WALDir: filepath.Join(dir, "s1"), Policy: wal.FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{"obs": "device"}
	router, err := NewRouter([]storage.Engine{ldr0.local, shard1}, RouterOptions{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}

	var ackedIDs []string
	for i := 0; ; i++ {
		docs := make([]storage.Doc, 10)
		for k := range docs {
			docs[k] = storage.Doc{"device": fmt.Sprintf("dev-%d", (i*10+k)%7), "batch": i}
		}
		ids, err := router.InsertMany("obs", docs)
		if err != nil {
			if !errors.Is(err, ErrAckTimeout) {
				t.Fatalf("batch %d: %v", i, err)
			}
			// Unacknowledged batch: ids gives no durability promise.
			break
		}
		ackedIDs = append(ackedIDs, ids...)
		if i > 500 {
			t.Skip("ingest finished before the partition fired")
		}
	}
	if len(ackedIDs) == 0 {
		t.Fatal("no batch acknowledged")
	}

	// Fail shard 0 over and rebuild the router around the promoted
	// replica.
	_ = ldr0.Close()
	promoted := promote(t, f0)
	defer promoted.close()
	router2, err := NewRouter([]storage.Engine{promoted.local, shard1}, RouterOptions{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ackedIDs {
		if _, err := router2.Get("obs", id); err != nil {
			t.Fatalf("acked doc %s lost in sharded failover: %v", id, err)
		}
	}
	if _, err := router2.Insert("obs", storage.Doc{"device": "dev-1"}); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if err := router2.Close(); err != nil {
		t.Fatal(err)
	}
}
