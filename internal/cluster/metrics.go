package cluster

import "github.com/urbancivics/goflow/internal/obs"

// Metrics are the cluster's observability counters, registered on the
// shared obs registry by the server wiring and counted where the event
// happens (nil disables them — every use site is nil-guarded, as the
// docstore's and the WAL's own metrics are).
type Metrics struct {
	// RouterFanouts counts fanned-out batch inserts.
	RouterFanouts *obs.Counter

	// ShippedRecords / ShippedBatches / ShippedBytes count replication
	// traffic the leader served to followers.
	ShippedRecords *obs.Counter
	ShippedBatches *obs.Counter
	ShippedBytes   *obs.Counter

	// AckTimeouts counts writes whose follower-ack quorum did not
	// arrive inside the ack timeout (the write is durable locally but
	// unacknowledged to the client).
	AckTimeouts *obs.Counter

	// AppliedRecords counts records a follower applied from its leader.
	AppliedRecords *obs.Counter
	// FollowerLag is the leader-durable-LSN minus follower-applied-LSN
	// gap observed on the follower's last batch.
	FollowerLag *obs.GaugeVec
	// Reconnects counts follower replication-session restarts.
	Reconnects *obs.Counter
	// Promotions counts follower promotions to leader.
	Promotions *obs.Counter

	// Term is the node's current election term.
	Term *obs.Gauge
	// Elections counts elections this node won.
	Elections *obs.Counter
	// FencingRejects counts writes rejected on a deposed leader with
	// ErrStaleTerm — each one is an ack the old timeline was not
	// allowed to hand out.
	FencingRejects *obs.Counter
	// SnapshotBytes counts checkpoint bytes a leader streamed to
	// snapshot-bootstrapping followers.
	SnapshotBytes *obs.Counter
	// SnapshotRestores counts completed follower snapshot bootstraps.
	SnapshotRestores *obs.Counter
	// FollowerCorruption counts corrupt-WAL errors a follower received
	// from its leader (localized by segment and offset in the logs) —
	// distinguishing disk damage from ordinary truncation.
	FollowerCorruption *obs.Counter
}

// NewMetrics registers the cluster metric families.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		RouterFanouts:  reg.Counter("cluster_router_fanout_total", "Fanned-out batch inserts"),
		ShippedRecords: reg.Counter("cluster_repl_shipped_records_total", "WAL records shipped to followers"),
		ShippedBatches: reg.Counter("cluster_repl_shipped_batches_total", "Replication batches shipped"),
		ShippedBytes:   reg.Counter("cluster_repl_shipped_bytes_total", "Replication payload bytes shipped"),
		AckTimeouts:    reg.Counter("cluster_repl_ack_timeout_total", "Writes not acknowledged by the follower quorum in time"),
		AppliedRecords: reg.Counter("cluster_repl_applied_records_total", "Records applied from the leader"),
		FollowerLag:    reg.GaugeVec("cluster_repl_follower_lag_records", "Leader durable LSN minus follower applied LSN", "follower"),
		Reconnects:     reg.Counter("cluster_repl_reconnect_total", "Follower replication session restarts"),
		Promotions:     reg.Counter("cluster_repl_promotion_total", "Follower promotions to leader"),

		Term:               reg.Gauge("cluster_term", "Current election term"),
		Elections:          reg.Counter("cluster_elections_total", "Elections won by this node"),
		FencingRejects:     reg.Counter("cluster_fencing_rejects_total", "Writes rejected on a deposed leader (stale term)"),
		SnapshotBytes:      reg.Counter("cluster_snapshot_transfer_bytes_total", "Snapshot bytes streamed to bootstrapping followers"),
		SnapshotRestores:   reg.Counter("cluster_snapshot_restore_total", "Completed follower snapshot bootstraps"),
		FollowerCorruption: reg.Counter("cluster_follower_corruption_total", "Corrupt leader WAL segments reported to a follower"),
	}
}
