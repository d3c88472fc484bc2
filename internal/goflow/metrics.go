package goflow

import (
	"strings"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/wal"
)

// Metrics adapts the hook streams of the broker, the document store
// and the ingest pipeline into obs metric families. Label values are
// classified rather than passed through raw: with one exchange and
// queue per mobile client (Figure 3's topology at 3,000+ registered
// users), labeling by queue name would explode the registry, so
// broker-side labels collapse to a bounded class —
// "goflow" (GFX/GF), "client" (E.*/Q.*), "location" (loc.*) and
// "app" (everything else).
type Metrics struct {
	reg *obs.Registry

	// Broker families, labeled by exchange/queue class.
	published  *obs.CounterVec
	unroutable *obs.CounterVec
	enqueued   *obs.CounterVec
	delivered  *obs.CounterVec
	acked      *obs.CounterVec
	nacked     *obs.CounterVec
	dropped    *obs.CounterVec
	queueReady *obs.GaugeVec
	queueCount *obs.GaugeVec
	conns      *obs.Gauge
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter

	// Route-cache effectiveness of the broker fast path.
	routeHits          *obs.Counter
	routeMisses        *obs.Counter
	routeInvalidations *obs.Counter

	// Docstore families, labeled by collection (one per app, bounded).
	opDuration *obs.HistogramVec
	queries    *obs.CounterVec

	// Broker flow control and overflow accounting.
	flowPaused      *obs.CounterVec
	flowResumed     *obs.CounterVec
	flowPausedNow   *obs.Gauge
	droppedOverflow *obs.CounterVec

	// Ingest pipeline.
	ingested *obs.CounterVec
	rejected *obs.Counter

	// REST admission guards.
	guardAdmitted *obs.CounterVec
	guardRejected *obs.CounterVec
	guardLatency  *obs.HistogramVec
	guardInflight *obs.GaugeVec
	guardP99      *obs.Gauge
	breakerState  *obs.Gauge
}

// NewMetrics builds the GoFlow metric families on reg. Call
// InstrumentBroker / InstrumentStore / InstrumentServer to start
// feeding them.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		published: reg.CounterVec("mq_published_total",
			"Messages published, by exchange class.", "exchange"),
		unroutable: reg.CounterVec("mq_unroutable_total",
			"Publishes that matched no queue, by exchange class.", "exchange"),
		enqueued: reg.CounterVec("mq_enqueued_total",
			"Messages enqueued, by queue class.", "queue"),
		delivered: reg.CounterVec("mq_delivered_total",
			"Messages handed to consumers, by queue class.", "queue"),
		acked: reg.CounterVec("mq_acked_total",
			"Deliveries acknowledged, by queue class.", "queue"),
		nacked: reg.CounterVec("mq_nacked_total",
			"Deliveries rejected, by queue class.", "queue"),
		dropped: reg.CounterVec("mq_dropped_total",
			"Messages dropped by overflow or nack, by queue class.", "queue"),
		queueReady: reg.GaugeVec("mq_queue_ready",
			"Ready messages summed over the queues of a class.", "queue"),
		queueCount: reg.GaugeVec("mq_queue_count",
			"Declared queues per class.", "queue"),
		conns: reg.Gauge("mq_connections",
			"Open wire-protocol connections."),
		bytesIn: reg.Counter("mq_wire_read_bytes_total",
			"Bytes read from wire-protocol connections."),
		bytesOut: reg.Counter("mq_wire_written_bytes_total",
			"Bytes written to wire-protocol connections."),
		routeHits: reg.Counter("mq_route_cache_hits_total",
			"Publishes resolved from the memoized route cache."),
		routeMisses: reg.Counter("mq_route_cache_misses_total",
			"Publishes that walked the binding indexes."),
		routeInvalidations: reg.Counter("mq_route_cache_invalidations_total",
			"Route-cache flushes caused by topology changes."),
		opDuration: reg.HistogramVec("docstore_op_duration_seconds",
			"Document store operation latency.", nil, "collection", "op"),
		queries: reg.CounterVec("docstore_queries_total",
			"Queries by collection and index outcome.", "collection", "index"),
		flowPaused: reg.CounterVec("mq_flow_paused_total",
			"Queue flow pauses at the high watermark, by queue class.", "queue"),
		flowResumed: reg.CounterVec("mq_flow_resumed_total",
			"Queue flow resumes at the low watermark, by queue class.", "queue"),
		flowPausedNow: reg.Gauge("mq_flow_paused",
			"Queues currently pausing their publishers."),
		droppedOverflow: reg.CounterVec("mq_dropped_overflow_total",
			"Messages dropped to MaxLen overflow, by queue class.", "queue"),
		ingested: reg.CounterVec("goflow_ingested_total",
			"Observations stored by the ingest pipeline, by app.", "app"),
		rejected: reg.Counter("goflow_rejected_total",
			"Deliveries the ingest pipeline rejected."),
		guardAdmitted: reg.CounterVec("guard_admitted_total",
			"API requests admitted past every guard, by priority class.", "class"),
		guardRejected: reg.CounterVec("guard_rejected_total",
			"API requests refused by an admission guard, by class and guard.", "class", "reason"),
		guardLatency: reg.HistogramVec("guard_latency_seconds",
			"Handler latency of admitted requests, by priority class.", nil, "class"),
		guardInflight: reg.GaugeVec("guard_inflight",
			"Admitted, unfinished API requests, by priority class.", "class"),
		guardP99: reg.Gauge("guard_p99_seconds",
			"Moving-window p99 handler latency driving the load shedder."),
		breakerState: reg.Gauge("guard_breaker_state",
			"Query-path circuit breaker state (0 closed, 1 half-open, 2 open)."),
	}
}

// exchangeClass collapses an exchange name to a bounded label value
// following the channel-management naming scheme.
func exchangeClass(name string) string {
	switch {
	case name == GoFlowExchange:
		return "goflow"
	case strings.HasPrefix(name, "E."):
		return "client"
	case strings.HasPrefix(name, "loc."):
		return "location"
	default:
		return "app"
	}
}

// queueClass collapses a queue name to a bounded label value.
func queueClass(name string) string {
	switch {
	case name == GoFlowQueue:
		return "goflow"
	case strings.HasPrefix(name, "Q."):
		return "client"
	default:
		return "other"
	}
}

// classedCounters caches one counter child per name class so the
// per-event hook is a prefix check plus an atomic increment — the
// broker hooks sit on the publish hot path and must not pay the
// labeled With lookup there.
type classedCounters struct {
	goflow, client, location, app, other *obs.Counter
}

func exchangeClassed(v *obs.CounterVec) classedCounters {
	return classedCounters{
		goflow:   v.With("goflow"),
		client:   v.With("client"),
		location: v.With("location"),
		app:      v.With("app"),
	}
}

func (c *classedCounters) forExchange(name string) *obs.Counter {
	switch {
	case name == GoFlowExchange:
		return c.goflow
	case strings.HasPrefix(name, "E."):
		return c.client
	case strings.HasPrefix(name, "loc."):
		return c.location
	default:
		return c.app
	}
}

func queueClassed(v *obs.CounterVec) classedCounters {
	return classedCounters{
		goflow: v.With("goflow"),
		client: v.With("client"),
		other:  v.With("other"),
	}
}

func (c *classedCounters) forQueue(name string) *obs.Counter {
	switch {
	case name == GoFlowQueue:
		return c.goflow
	case strings.HasPrefix(name, "Q."):
		return c.client
	default:
		return c.other
	}
}

// InstrumentBroker installs hooks on the broker and registers a
// collect-time sampler that refreshes per-class queue depth gauges
// from the lock-free stats fast path.
func (m *Metrics) InstrumentBroker(b *mq.Broker) {
	published := exchangeClassed(m.published)
	unroutable := exchangeClassed(m.unroutable)
	enqueued := queueClassed(m.enqueued)
	delivered := queueClassed(m.delivered)
	acked := queueClassed(m.acked)
	nacked := queueClassed(m.nacked)
	dropped := queueClassed(m.dropped)
	overflowed := queueClassed(m.droppedOverflow)
	flowPaused := queueClassed(m.flowPaused)
	flowResumed := queueClassed(m.flowResumed)
	b.SetHooks(mq.Hooks{
		Published: func(exchange string, n int) {
			published.forExchange(exchange).Inc()
			if n == 0 {
				unroutable.forExchange(exchange).Inc()
			}
		},
		Enqueued:  func(q string) { enqueued.forQueue(q).Inc() },
		Delivered: func(q string) { delivered.forQueue(q).Inc() },
		Acked:     func(q string) { acked.forQueue(q).Inc() },
		Nacked: func(q string, requeue bool) {
			nacked.forQueue(q).Inc()
		},
		Dropped:               func(q string) { dropped.forQueue(q).Inc() },
		Overflowed:            func(q string) { overflowed.forQueue(q).Inc() },
		FlowPaused:            func(q string) { flowPaused.forQueue(q).Inc() },
		FlowResumed:           func(q string) { flowResumed.forQueue(q).Inc() },
		ConnOpened:            func() { m.conns.Inc() },
		ConnClosed:            func() { m.conns.Dec() },
		BytesRead:             func(n int) { m.bytesIn.Add(uint64(n)) },
		BytesWritten:          func(n int) { m.bytesOut.Add(uint64(n)) },
		RouteCacheHit:         m.routeHits.Inc,
		RouteCacheMiss:        m.routeMisses.Inc,
		RouteCacheInvalidated: m.routeInvalidations.Inc,
	})
	m.reg.OnCollect(func() {
		ready := map[string]float64{}
		count := map[string]float64{}
		for _, name := range b.Queues() {
			st, err := b.QueueStatsFast(name)
			if err != nil {
				continue // deleted between listing and sampling
			}
			cls := queueClass(name)
			ready[cls] += float64(st.Ready)
			count[cls]++
		}
		// Touch every known class so a drained class reads 0 rather
		// than holding its last sampled value.
		for _, cls := range []string{"goflow", "client", "other"} {
			m.queueReady.With(cls).Set(ready[cls])
			m.queueCount.With(cls).Set(count[cls])
		}
		m.flowPausedNow.Set(float64(len(b.PausedQueues())))
	})
}

// InstrumentAdmission feeds the guard_* families from the REST
// admission chain's decision hooks and samples the shedder p99,
// per-class in-flight gauges and breaker state at collect time.
func (m *Metrics) InstrumentAdmission(a *Admission) {
	a.SetHooks(AdmissionHooks{
		Admitted: func(c guard.Class) { m.guardAdmitted.With(c.String()).Inc() },
		Rejected: func(c guard.Class, reason string) {
			m.guardRejected.With(c.String(), reason).Inc()
		},
		Observed: func(c guard.Class, d time.Duration) {
			m.guardLatency.With(c.String()).ObserveDuration(d)
		},
	})
	m.reg.OnCollect(func() {
		m.guardP99.Set(a.Shedder().P99().Seconds())
		for _, c := range guard.Classes() {
			m.guardInflight.With(c.String()).Set(float64(a.InFlight(c)))
		}
		var v float64
		switch a.Breaker().State() {
		case guard.BreakerHalfOpen:
			v = 1
		case guard.BreakerOpen:
			v = 2
		}
		m.breakerState.Set(v)
	})
}

// InstrumentWAL registers the wal_* families and feeds them from the
// write-ahead log's hooks and stats. Families are created here rather
// than in NewMetrics so servers running without a WAL don't expose
// dead zero-valued series.
func (m *Metrics) InstrumentWAL(w *wal.WAL) {
	records := m.reg.Counter("wal_records_total",
		"Records appended to the write-ahead log.")
	walBytes := m.reg.Counter("wal_bytes_total",
		"Framed bytes appended to the write-ahead log.")
	fsyncs := m.reg.Counter("wal_fsyncs_total",
		"Write-ahead log segment fsync calls.")
	fsyncSeconds := m.reg.Histogram("wal_fsync_duration_seconds",
		"Latency of write-ahead log segment fsyncs.", nil)
	batch := m.reg.Histogram("wal_commit_batch_records",
		"Records made durable per group-commit fsync.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	rotations := m.reg.Counter("wal_rotations_total",
		"Write-ahead log segment rotations.")
	truncated := m.reg.Counter("wal_truncated_segments_total",
		"Sealed segments deleted by checkpoints.")
	segments := m.reg.Gauge("wal_segments",
		"Live log segments, including the active one.")
	lastLSN := m.reg.Gauge("wal_last_lsn",
		"Highest assigned log sequence number.")
	durableLSN := m.reg.Gauge("wal_durable_lsn",
		"Highest log sequence number known fsynced.")
	replayedRecords := m.reg.Gauge("wal_replayed_records",
		"Records replayed by the last crash recovery.")
	replaySeconds := m.reg.Gauge("wal_replay_seconds",
		"Wall time of the last crash-recovery replay, first read to last apply.")
	w.SetHooks(wal.Hooks{
		Appended: func(n, b int) {
			records.Add(uint64(n))
			walBytes.Add(uint64(b))
		},
		Synced: func(n int, d time.Duration) {
			fsyncs.Inc()
			fsyncSeconds.ObserveDuration(d)
			batch.Observe(float64(n))
		},
		Rotated:   rotations.Inc,
		Truncated: func(n int) { truncated.Add(uint64(n)) },
	})
	m.reg.OnCollect(func() {
		st := w.Stats()
		segments.Set(float64(st.Segments))
		lastLSN.Set(float64(st.LastLSN))
		durableLSN.Set(float64(st.DurableLSN))
		replayedRecords.Set(float64(st.ReplayedRecords))
		replaySeconds.Set(st.ReplayDuration.Seconds())
	})
}

// InstrumentSeries registers the series_* families and feeds them
// from the time-series engine's hooks and stats. Like InstrumentWAL,
// the families are created here so servers running without a series
// engine don't expose dead zero-valued series.
func (m *Metrics) InstrumentSeries(db *series.DB) {
	appended := m.reg.Counter("series_appended_total",
		"Observation points appended to the series engine.")
	seals := m.reg.Counter("series_seals_total",
		"Chunks sealed (filled or checkpointed).")
	sealedBytes := m.reg.Counter("series_sealed_bytes_total",
		"Encoded bytes of sealed chunks.")
	queryDur := m.reg.HistogramVec("series_query_duration_seconds",
		"Series query latency, by query kind.", nil, "kind")
	scanned := m.reg.Counter("series_chunks_scanned_total",
		"Chunks decoded by series queries.")
	skipped := m.reg.Counter("series_chunks_skipped_total",
		"Chunks pruned by the sparse min/max index.")
	memo := m.reg.CounterVec("series_window_memo_total",
		"Whole partition windows read by series queries, by result: hit = served from the window's memo, fill = re-merged from its buckets first (a point landed in it since the last read).",
		"result")
	memoHit, memoFill := memo.With("hit"), memo.With("fill")
	edge := m.reg.CounterVec("series_edge_points_total",
		"Raw points decoded by the sub-bucket edges of series queries, by result: decoded = every point read, kept = those inside the asked range.",
		"result")
	edgeDecoded, edgeKept := edge.With("decoded"), edge.With("kept")
	retChunks := m.reg.Counter("series_retention_chunks_total",
		"Raw chunks dropped by retention.")
	retPoints := m.reg.Counter("series_retention_points_total",
		"Raw points dropped by retention (rollups keep their history).")
	rebuilds := m.reg.Counter("series_rollup_rebuilds_total",
		"Rollup rebuilds from chunks (recovery mismatch or corruption).")
	ckptDur := m.reg.Histogram("series_checkpoint_duration_seconds",
		"Series checkpoint latency.", nil)
	ckptChunks := m.reg.Counter("series_checkpoint_chunks_total",
		"Chunks persisted by checkpoints.")
	points := m.reg.Gauge("series_points",
		"Points held across raw chunks.")
	chunks := m.reg.Gauge("series_sealed_chunks",
		"Sealed immutable chunks.")
	chunkBytes := m.reg.Gauge("series_sealed_chunk_bytes",
		"Encoded bytes across sealed chunks.")
	zones := m.reg.Gauge("series_zones",
		"Zones with at least one rollup bucket.")
	buckets := m.reg.Gauge("series_rollup_buckets",
		"Live (zone, time-bucket) rollup aggregates.")
	rollupBytes := m.reg.Gauge("series_rollup_bytes",
		"Resident bytes of the rollup cells and their spilled histograms.")
	watermark := m.reg.Gauge("series_watermark_lsn",
		"Highest commit-log LSN folded into the series engine.")
	db.SetHooks(&series.Hooks{
		Append: func(n int) { appended.Add(uint64(n)) },
		Seal: func(p, b int) {
			seals.Inc()
			sealedBytes.Add(uint64(b))
		},
		Query: func(kind string, d time.Duration, sc, sk int) {
			queryDur.With(kind).ObserveDuration(d)
			scanned.Add(uint64(sc))
			skipped.Add(uint64(sk))
		},
		WindowMemo: func(hits, fills int) {
			memoHit.Add(uint64(hits))
			memoFill.Add(uint64(fills))
		},
		EdgePoints: func(decoded, kept int) {
			edgeDecoded.Add(uint64(decoded))
			edgeKept.Add(uint64(kept))
		},
		Retention: func(c, p int) {
			retChunks.Add(uint64(c))
			retPoints.Add(uint64(p))
		},
		Rebuild: rebuilds.Inc,
		Checkpoint: func(d time.Duration, saved int) {
			ckptDur.ObserveDuration(d)
			ckptChunks.Add(uint64(saved))
		},
	})
	m.reg.OnCollect(func() {
		st := db.Stats()
		points.Set(float64(st.Points))
		chunks.Set(float64(st.SealedChunks))
		chunkBytes.Set(float64(st.SealedBytes))
		zones.Set(float64(st.Zones))
		buckets.Set(float64(st.RollupBuckets))
		rollupBytes.Set(float64(st.RollupBytes))
		watermark.Set(float64(st.Watermark))
	})
}

// InstrumentPredict registers the predict_* families and feeds them
// from the forecaster's hooks. Created here, not unconditionally, so
// servers running without -predict don't expose dead zero-valued
// series.
func (m *Metrics) InstrumentPredict(f *predict.Forecaster) {
	if f == nil {
		return
	}
	sweeps := m.reg.Counter("predict_sweeps_total",
		"Whole-city forecast sweeps.")
	forecastZones := m.reg.Gauge("predict_forecast_zones",
		"Zones with a forecast in the latest sweep.")
	coldZones := m.reg.Gauge("predict_cold_zones",
		"Zones skipped in the latest sweep for insufficient history.")
	sweepDur := m.reg.Histogram("predict_sweep_duration_seconds",
		"Whole-city forecast sweep latency.", nil)
	zoneReqs := m.reg.CounterVec("predict_zone_forecasts_total",
		"Single-zone forecast requests, by outcome.", "outcome")
	zoneDur := m.reg.Histogram("predict_zone_forecast_duration_seconds",
		"Single-zone forecast latency.", nil)
	reroutes := m.reg.CounterVec("predict_reroutes_total",
		"Quiet-route requests, by outcome.", "outcome")
	rerouteDur := m.reg.Histogram("predict_reroute_duration_seconds",
		"Quiet-route scoring latency (sweep plus path search).", nil)
	f.SetHooks(&predict.Hooks{
		Sweep: func(zones, cold int, d time.Duration) {
			sweeps.Inc()
			forecastZones.Set(float64(zones))
			coldZones.Set(float64(cold))
			sweepDur.ObserveDuration(d)
		},
		Zone: func(ok bool, d time.Duration) {
			if ok {
				zoneReqs.With("forecast").Inc()
			} else {
				zoneReqs.With("cold").Inc()
			}
			zoneDur.ObserveDuration(d)
		},
		Reroute: func(rerouted bool, d time.Duration) {
			if rerouted {
				reroutes.With("rerouted").Inc()
			} else {
				reroutes.With("kept").Inc()
			}
			rerouteDur.ObserveDuration(d)
		},
	})
}

// InstrumentLive registers the live_* families and feeds them from
// the broker's live fan-out hooks and the hub. Like InstrumentWAL,
// the families are created here so servers running without live
// subscriptions don't expose dead zero-valued series.
func (m *Metrics) InstrumentLive(s *Server) {
	connected := m.reg.Gauge("live_connected_sockets",
		"Live push subscriptions currently attached.")
	delivered := m.reg.Counter("live_delivered_total",
		"Events enqueued onto live socket mailboxes.")
	dropped := m.reg.Counter("live_dropped_total",
		"Events dropped because a live mailbox was full.")
	shed := m.reg.Counter("live_shed_total",
		"Live subscriptions disconnected for exhausting their send budget.")
	fanout := m.reg.Histogram("live_fanout_duration_seconds",
		"Per-publish live fan-out latency (trie match plus mailbox sends).",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1})
	catchups := m.reg.Counter("live_cursor_catchup_total",
		"Cursor catch-up reads served by GET /v1/observations.")
	s.broker.SetLiveHooks(mq.LiveHooks{
		Fanout:    func(subs int, d time.Duration) { fanout.ObserveDuration(d) },
		Delivered: delivered.Inc,
		Dropped:   dropped.Inc,
		Shed:      shed.Inc,
	})
	m.reg.OnCollect(func() {
		connected.Set(float64(s.Live.Sockets()))
		// The counter family is monotonic; the hub's total only moves
		// forward, so Set-via-delta is safe here.
		cur := s.Live.CatchupReads()
		if prev := catchups.Value(); cur > prev {
			catchups.Add(cur - prev)
		}
	})
}

// InstrumentStore installs hooks on the document store.
func (m *Metrics) InstrumentStore(s *docstore.Store) {
	s.SetHooks(docstore.Hooks{
		Insert: func(col string, d time.Duration) {
			m.opDuration.With(col, "insert").ObserveDuration(d)
		},
		Query: func(col string, d time.Duration, indexUsed bool) {
			m.opDuration.With(col, "query").ObserveDuration(d)
			outcome := "miss"
			if indexUsed {
				outcome = "hit"
			}
			m.queries.With(col, outcome).Inc()
		},
		Update: func(col string, d time.Duration) {
			m.opDuration.With(col, "update").ObserveDuration(d)
		},
		Delete: func(col string, d time.Duration) {
			m.opDuration.With(col, "delete").ObserveDuration(d)
		},
	})
	// Which encoding this node has read back: legacy gob until the
	// first checkpoint after an upgrade retires it, bin1 from then on.
	// The store counts from its creation — before this registry
	// existed — so each collect adds what is new since the last.
	decoded := m.reg.CounterVec("docstore_wal_decoded_records_total",
		"WAL and replication records decoded and applied, by payload format.", "format")
	restored := m.reg.CounterVec("docstore_snapshots_restored_total",
		"Snapshots restored, by file format.", "format")
	// How many distinct field sets the stored documents of this process
	// have: tens while documents share shapes, the registry's bound when
	// a workload gives every document its own and so defeats the sharing
	// the stored form's size rests on.
	shapes := m.reg.Gauge("docstore_shapes", "Document shapes (distinct field sets) registered by the process.")
	// How many fields have met more distinct strings than their intern
	// table codes: from then on a new value of theirs is stored boxed,
	// so each document holding one weighs more. Zero while every
	// enumerated field fits its table.
	closed := m.reg.Gauge("docstore_intern_closed_fields", "Fields whose intern table gave out all its codes; their new values are stored boxed.")
	var mu sync.Mutex
	var last docstore.FormatStats
	m.reg.OnCollect(func() {
		shapes.Set(float64(docstore.ShapeCount()))
		closed.Set(float64(docstore.InternClosedFields()))
		mu.Lock()
		defer mu.Unlock()
		now := s.FormatStats()
		decoded.With("gob").Add(now.DecodedGob - last.DecodedGob)
		decoded.With("bin1").Add(now.DecodedBin - last.DecodedBin)
		restored.With("gob").Add(now.RestoredGob - last.RestoredGob)
		restored.With("bin1").Add(now.RestoredBin - last.RestoredBin)
		last = now
	})
}

// InstrumentServer installs the ingest-pipeline counters.
func (m *Metrics) InstrumentServer(s *Server) {
	s.SetIngestHooks(
		func(appID string) { m.ingested.With(appID).Inc() },
		func() { m.rejected.Inc() },
	)
}

// Instrument wires every layer of a server — broker, store via the
// server's data manager, and ingest pipeline — into reg and returns
// the adapter.
func Instrument(reg *obs.Registry, s *Server, store *docstore.Store) *Metrics {
	m := NewMetrics(reg)
	m.InstrumentBroker(s.broker)
	m.InstrumentStore(store)
	m.InstrumentServer(s)
	m.InstrumentAdmission(s.Guard)
	m.InstrumentLive(s)
	m.InstrumentPredict(s.Predict)
	return m
}
