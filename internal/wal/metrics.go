package wal

import (
	"time"

	"github.com/urbancivics/goflow/internal/obs"
)

// walMetrics are what the log counts and times only while a registry
// is attached; everything Stats already counts is read from Stats at
// scrape.
type walMetrics struct {
	fsyncSeconds *obs.Histogram
	batch        *obs.Histogram
	rotations    *obs.Counter
	truncated    *obs.Counter
}

// start reads the clock for an fsync timing, only when m is attached.
func (m *walMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// synced records one fsync that made records durable.
func (m *walMetrics) synced(records int, start time.Time) {
	if m == nil {
		return
	}
	m.fsyncSeconds.ObserveDuration(time.Since(start))
	m.batch.Observe(float64(records))
}

// Instrument registers the wal_* families on reg: the fsync latency,
// the group-commit batch size, rotations and truncations are counted
// here from now on; records, bytes, fsyncs and the gauges are the
// log's own Stats, read at every scrape.
func (w *WAL) Instrument(reg *obs.Registry) {
	records := reg.Counter("wal_records_total",
		"Records appended to the write-ahead log.")
	walBytes := reg.Counter("wal_bytes_total",
		"Framed bytes appended to the write-ahead log.")
	fsyncs := reg.Counter("wal_fsyncs_total",
		"Write-ahead log segment fsync calls.")
	segments := reg.Gauge("wal_segments",
		"Live log segments, including the active one.")
	lastLSN := reg.Gauge("wal_last_lsn",
		"Highest assigned log sequence number.")
	durableLSN := reg.Gauge("wal_durable_lsn",
		"Highest log sequence number known fsynced.")
	replayedRecords := reg.Gauge("wal_replayed_records",
		"Records replayed by the last crash recovery.")
	replaySeconds := reg.Gauge("wal_replay_seconds",
		"Wall time of the last crash-recovery replay, first read to last apply.")
	w.metrics.Store(&walMetrics{
		fsyncSeconds: reg.Histogram("wal_fsync_duration_seconds",
			"Latency of write-ahead log segment fsyncs.", nil),
		batch: reg.Histogram("wal_commit_batch_records",
			"Records made durable per group-commit fsync.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		rotations: reg.Counter("wal_rotations_total",
			"Write-ahead log segment rotations."),
		truncated: reg.Counter("wal_truncated_segments_total",
			"Sealed segments deleted by checkpoints."),
	})
	reg.OnCollect(func() {
		st := w.Stats()
		records.Set(st.Records)
		walBytes.Set(st.Bytes)
		fsyncs.Set(st.Fsyncs)
		segments.Set(float64(st.Segments))
		lastLSN.Set(float64(st.LastLSN))
		durableLSN.Set(float64(st.DurableLSN))
		replayedRecords.Set(float64(st.ReplayedRecords))
		replaySeconds.Set(st.ReplayDuration.Seconds())
	})
}
