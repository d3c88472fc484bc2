// Package cluster turns the single-node storage engine into a sharded,
// replicated document store. It puts two pieces on the storage.Engine
// seam:
//
//   - Router partitions collections across N engine shards by a
//     per-collection shard key (the anonymized device id for
//     observations, the geo zone for spatial collections), fanning out
//     batch inserts and merging sorted scans;
//   - Node is one member of a self-healing replication group, the one
//     way to replicate: the group elects a leader, whose commit log
//     makes acknowledging a write wait for a majority's follower acks,
//     while the other members tail its WAL over the mq wire layer
//     (sealed segments for catch-up, long-polled live records
//     afterwards), serve reads, and elect a successor when it dies.
//
// The paper's deployment leaned on a MongoDB replica set for exactly
// these two properties — write scaling by sharding and survival of a
// primary loss — and lists the single-primary bottleneck among its
// scaling lessons. This package reproduces both behind the same Engine
// interface the single-node path uses, so the layers above cannot tell
// the difference.
package cluster

// FNV-1a, written out rather than importing hash/fnv: the router hashes
// on every routed operation and the stdlib object costs an allocation
// per hash; the constants are part of the sharding contract (stable
// across releases, or resharding would scatter every key).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashKey hashes a shard key with 64-bit FNV-1a. The function is fixed
// forever: a key's shard assignment may only change when the shard
// count does.
func HashKey(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// ShardFor maps a shard key onto one of n shards. n must be positive.
func ShardFor(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(HashKey(key) % uint64(n))
}
