package docstore

import (
	"time"

	"github.com/urbancivics/goflow/internal/obs"
)

// storeMetrics are the operation latencies and query outcomes the
// store counts while a registry is attached (see Instrument). Timing
// runs only then.
type storeMetrics struct {
	opDuration *obs.HistogramVec
	queries    *obs.CounterVec
}

// start reads the clock for an operation timing, only when m is
// attached.
func (m *storeMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records one operation on a collection.
func (m *storeMetrics) observe(col, op string, start time.Time) {
	m.opDuration.With(col, op).ObserveDuration(time.Since(start))
}

// query records one filtered read and whether an index pruned it.
func (m *storeMetrics) query(col string, start time.Time, indexUsed bool) {
	if m == nil {
		return
	}
	m.observe(col, "query", start)
	outcome := "miss"
	if indexUsed {
		outcome = "hit"
	}
	m.queries.With(col, outcome).Inc()
}

// Instrument registers the docstore_* families on reg and starts
// timing every collection's operations into them, current and future
// collections alike. The read-format counters (FormatStats) count from
// the store's creation and are read at every scrape, as are the
// process's shape and intern-table gauges.
func (s *Store) Instrument(reg *obs.Registry) {
	s.metrics.Store(&storeMetrics{
		opDuration: reg.HistogramVec("docstore_op_duration_seconds",
			"Document store operation latency.", nil, "collection", "op"),
		queries: reg.CounterVec("docstore_queries_total",
			"Queries by collection and index outcome.", "collection", "index"),
	})
	// Which encoding this node has read back: legacy gob until the
	// first checkpoint after an upgrade retires it, bin1 from then on.
	decoded := reg.CounterVec("docstore_wal_decoded_records_total",
		"WAL and replication records decoded and applied, by payload format.", "format")
	restored := reg.CounterVec("docstore_snapshots_restored_total",
		"Snapshots restored, by file format.", "format")
	// How many distinct field sets the stored documents of this process
	// have: tens while documents share shapes, the registry's bound when
	// a workload gives every document its own and so defeats the sharing
	// the stored form's size rests on.
	shapes := reg.Gauge("docstore_shapes", "Document shapes (distinct field sets) registered by the process.")
	// How many fields have met more distinct strings than their intern
	// table codes: from then on a new value of theirs is stored boxed,
	// so each document holding one weighs more. Zero while every
	// enumerated field fits its table.
	closed := reg.Gauge("docstore_intern_closed_fields", "Fields whose intern table gave out all its codes; their new values are stored boxed.")
	reg.OnCollect(func() {
		shapes.Set(float64(ShapeCount()))
		closed.Set(float64(InternClosedFields()))
		st := s.FormatStats()
		decoded.With("gob").Set(st.DecodedGob)
		decoded.With("bin1").Set(st.DecodedBin)
		restored.With("gob").Set(st.RestoredGob)
		restored.With("bin1").Set(st.RestoredBin)
	})
}
