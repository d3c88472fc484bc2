package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// BenchmarkFollowerCatchup measures log-shipping throughput: a fresh
// follower bulk-reads a 5000-record leader history. bytes/op is the
// shipped payload volume, so the reported MB/s is catch-up bandwidth.
func BenchmarkFollowerCatchup(b *testing.B) {
	dir := b.TempDir()
	ldr := startTestLeader(b, openShard(b, filepath.Join(dir, "leader")), leaderOptions{})
	defer func() { _ = ldr.Close() }()
	lw := ldr.local
	const corpus = 5000
	var payloadBytes int64
	for i := 0; i < corpus; i++ {
		if _, err := lw.Insert("obs", storage.Doc{
			"device": fmt.Sprintf("d%d", i%16),
			"seq":    i,
			"spl":    55.5 + float64(i%40),
			"note":   "bench observation payload with representative field sizes",
		}); err != nil {
			b.Fatal(err)
		}
	}
	payloadBytes = int64(lw.WAL().Stats().Bytes)
	target := lw.WAL().LastLSN()
	b.SetBytes(payloadBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := startTestFollower(b, openShard(b, filepath.Join(dir, fmt.Sprintf("f%d", i))), followerOptions{Name: "bench", Addr: ldr.addr()})
		for f.applied.Load() < target {
			time.Sleep(time.Millisecond)
		}
		b.StopTimer()
		_ = closeFollower(f)
		b.StartTimer()
	}
}

// BenchmarkReplicatedIngest measures the per-write cost of replication
// against the single-node baseline: mode=local is a plain WAL engine,
// mode=async ships to a follower without waiting for it (the async
// quorum only a one-member group still runs, where there is no
// follower), mode=sync waits for the follower ack on every write.
func BenchmarkReplicatedIngest(b *testing.B) {
	for _, mode := range []string{"local", "async", "sync"} {
		b.Run("mode="+mode, func(b *testing.B) {
			dir := b.TempDir()
			var eng storage.Engine
			switch mode {
			case "local":
				l, err := storage.OpenLocal(storage.LocalOptions{
					WALDir: filepath.Join(dir, "leader"),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = l.Close() }()
				eng = l
			default:
				sync := 0
				if mode == "sync" {
					sync = 1
				}
				ldr := startTestLeader(b, openShard(b, filepath.Join(dir, "leader")), leaderOptions{
					SyncFollowers: sync,
					Heartbeat:     2 * time.Millisecond,
				})
				defer func() { _ = ldr.Close() }()
				f := startTestFollower(b, openShard(b, filepath.Join(dir, "follower")), followerOptions{Name: "f1", Addr: ldr.addr()})
				defer func() { _ = closeFollower(f) }()
				eng = ldr.local
			}
			doc := storage.Doc{"device": "d1", "spl": 61.5}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := storage.Doc{}
				for k, v := range doc {
					d[k] = v
				}
				d["seq"] = i
				if _, err := eng.Insert("obs", d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedBulkIngest measures write scaling across shard
// counts under the workload sharding is for: many concurrent
// uploaders, each landing a 100-document mixed-device batch. The
// policy dimension separates the two regimes: fsync=none exposes the
// store's lock/index parallelism (shards are independent collections,
// so this should scale), fsync=grouped adds one durable group commit
// per shard per batch — on a single disk more shards mean more
// fsyncs, so durability, not sharding, bounds single-box ingest.
func BenchmarkShardedBulkIngest(b *testing.B) {
	for _, policy := range []wal.FsyncPolicy{wal.FsyncNone, wal.FsyncGrouped} {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("fsync=%s/shards=%d", policy, n), func(b *testing.B) {
				dir := b.TempDir()
				shards := make([]storage.Engine, n)
				for i := range shards {
					l, err := storage.OpenLocal(storage.LocalOptions{
						WALDir: filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
						Policy: policy,
					})
					if err != nil {
						b.Fatal(err)
					}
					shards[i] = l
				}
				r, err := NewRouter(shards, RouterOptions{
					Keys: map[string]string{"obs": "device"},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = r.Close() }()
				r.EnsureIndex("obs", "device")
				const batch = 100
				b.SetBytes(batch) // docs per op: MB/s reads as Mdocs/s
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					seq := 0
					for pb.Next() {
						docs := make([]storage.Doc, batch)
						for k := range docs {
							docs[k] = storage.Doc{
								"device": fmt.Sprintf("device-%d", (seq+k)%64),
								"seq":    seq + k,
								"spl":    50.0 + float64(k%30),
							}
						}
						seq += batch
						if _, err := r.InsertMany("obs", docs); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
