package series

import "github.com/urbancivics/goflow/internal/obs"

// dbMetrics are what the DB counts and times while a registry is
// attached (see Instrument).
type dbMetrics struct {
	appended, seals, sealedBytes *obs.Counter
	queryDur                     *obs.HistogramVec
	scanned, skipped             *obs.Counter
	memoHit, memoFill            *obs.Counter
	edgeDecoded, edgeKept        *obs.Counter
	retChunks, retPoints         *obs.Counter
	ckptDur                      *obs.Histogram
	ckptChunks                   *obs.Counter
}

// Instrument registers the series_* families on reg and starts
// counting appends, seals, queries, retention and checkpoints into
// them. The gauges and the rollup rebuilds are the DB's own Stats,
// read at every scrape.
func (db *DB) Instrument(reg *obs.Registry) {
	memo := reg.CounterVec("series_window_memo_total",
		"Whole partition windows read by series queries, by result: hit = served from the window's memo, fill = re-merged from its buckets first (a point landed in it since the last read).",
		"result")
	edge := reg.CounterVec("series_edge_points_total",
		"Raw points decoded by the sub-bucket edges of series queries, by result: decoded = every point read, kept = those inside the asked range.",
		"result")
	db.metrics.Store(&dbMetrics{
		appended: reg.Counter("series_appended_total",
			"Observation points appended to the series engine."),
		seals: reg.Counter("series_seals_total",
			"Chunks sealed (filled or checkpointed)."),
		sealedBytes: reg.Counter("series_sealed_bytes_total",
			"Encoded bytes of sealed chunks."),
		queryDur: reg.HistogramVec("series_query_duration_seconds",
			"Series query latency, by query kind.", nil, "kind"),
		scanned: reg.Counter("series_chunks_scanned_total",
			"Chunks decoded by series queries."),
		skipped: reg.Counter("series_chunks_skipped_total",
			"Chunks pruned by the sparse min/max index."),
		memoHit:     memo.With("hit"),
		memoFill:    memo.With("fill"),
		edgeDecoded: edge.With("decoded"),
		edgeKept:    edge.With("kept"),
		retChunks: reg.Counter("series_retention_chunks_total",
			"Raw chunks dropped by retention."),
		retPoints: reg.Counter("series_retention_points_total",
			"Raw points dropped by retention (rollups keep their history)."),
		ckptDur: reg.Histogram("series_checkpoint_duration_seconds",
			"Series checkpoint latency.", nil),
		ckptChunks: reg.Counter("series_checkpoint_chunks_total",
			"Chunks persisted by checkpoints."),
	})
	rebuilds := reg.Counter("series_rollup_rebuilds_total",
		"Rollup rebuilds from chunks (recovery mismatch or corruption).")
	points := reg.Gauge("series_points",
		"Points held across raw chunks.")
	chunks := reg.Gauge("series_sealed_chunks",
		"Sealed immutable chunks.")
	chunkBytes := reg.Gauge("series_sealed_chunk_bytes",
		"Encoded bytes across sealed chunks.")
	zones := reg.Gauge("series_zones",
		"Zones with at least one rollup bucket.")
	buckets := reg.Gauge("series_rollup_buckets",
		"Live (zone, time-bucket) rollup aggregates.")
	rollupBytes := reg.Gauge("series_rollup_bytes",
		"Resident bytes of the rollup cells and their spilled histograms.")
	watermark := reg.Gauge("series_watermark_lsn",
		"Highest commit-log LSN folded into the series engine.")
	reg.OnCollect(func() {
		st := db.Stats()
		rebuilds.Set(uint64(st.RollupRebuilds))
		points.Set(float64(st.Points))
		chunks.Set(float64(st.SealedChunks))
		chunkBytes.Set(float64(st.SealedBytes))
		zones.Set(float64(st.Zones))
		buckets.Set(float64(st.RollupBuckets))
		rollupBytes.Set(float64(st.RollupBytes))
		watermark.Set(float64(st.Watermark))
	})
}
