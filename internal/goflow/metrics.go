package goflow

import (
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/wal"
)

// Metrics is a server's /metrics surface. Every number on it is
// counted at one site, in the layer that sees the event. The server
// layers that time something — the document store, the WAL, the
// series engine, the forecaster and the admission chain — hold their
// own obs values, which their Instrument methods register. The broker
// stays free of obs (goflow-client links it): it counts into atomics
// its Stats returns, and the broker families below read those at
// every scrape, summed by name class.
type Metrics struct {
	reg *obs.Registry
}

// Instrument registers every layer of a server — broker, live
// fan-out, the store behind the server's data manager, ingest,
// admission and forecasts — on reg and returns the surface, to which
// InstrumentWAL and InstrumentSeries add the durable layers.
func Instrument(reg *obs.Registry, s *Server, store *docstore.Store) *Metrics {
	m := &Metrics{reg: reg}
	m.instrumentBroker(s)
	store.Instrument(reg)
	m.instrumentIngest(s.Analytics)
	s.Guard.instrument(reg)
	if s.Predict != nil {
		s.Predict.Instrument(reg)
	}
	return m
}

// InstrumentWAL registers the wal_* families. They are registered
// here rather than by Instrument so servers running without a WAL
// don't expose dead zero-valued series.
func (m *Metrics) InstrumentWAL(w *wal.WAL) { w.Instrument(m.reg) }

// InstrumentSeries registers the series_* families; like
// InstrumentWAL, only for servers with a series engine.
func (m *Metrics) InstrumentSeries(db *series.DB) { db.Instrument(m.reg) }

// exchangeClasses and queueClasses are every value of the broker
// families' labels, all exposed from the first scrape on.
var (
	exchangeClasses = []string{"goflow", "client", "location", "app"}
	queueClasses    = []string{"goflow", "client", "other"}
)

// instrumentBroker registers the mq_* and live_* families. Their
// counts are the broker's own, read at every scrape; the live fan-out
// latency is the one the broker times for its LiveHooks.
func (m *Metrics) instrumentBroker(s *Server) {
	reg := m.reg
	published := reg.CounterVec("mq_published_total",
		"Messages published, by exchange class.", "exchange")
	unroutable := reg.CounterVec("mq_unroutable_total",
		"Publishes that matched no queue, by exchange class.", "exchange")
	enqueued := reg.CounterVec("mq_enqueued_total",
		"Messages enqueued, by queue class.", "queue")
	delivered := reg.CounterVec("mq_delivered_total",
		"Messages handed to consumers, by queue class.", "queue")
	acked := reg.CounterVec("mq_acked_total",
		"Deliveries acknowledged, by queue class.", "queue")
	nacked := reg.CounterVec("mq_nacked_total",
		"Deliveries rejected, by queue class.", "queue")
	dropped := reg.CounterVec("mq_dropped_total",
		"Messages dropped by overflow or nack, by queue class.", "queue")
	overflowed := reg.CounterVec("mq_dropped_overflow_total",
		"Messages dropped to MaxLen overflow, by queue class.", "queue")
	flowPaused := reg.CounterVec("mq_flow_paused_total",
		"Queue flow pauses at the high watermark, by queue class.", "queue")
	flowResumed := reg.CounterVec("mq_flow_resumed_total",
		"Queue flow resumes at the low watermark, by queue class.", "queue")
	queueReady := reg.GaugeVec("mq_queue_ready",
		"Ready messages summed over the queues of a class.", "queue")
	queueCount := reg.GaugeVec("mq_queue_count",
		"Declared queues per class.", "queue")
	flowPausedNow := reg.Gauge("mq_flow_paused",
		"Queues currently pausing their publishers.")
	conns := reg.Gauge("mq_connections",
		"Open wire-protocol connections.")
	bytesIn := reg.Counter("mq_wire_read_bytes_total",
		"Bytes read from wire-protocol connections.")
	bytesOut := reg.Counter("mq_wire_written_bytes_total",
		"Bytes written to wire-protocol connections.")
	routeHits := reg.Counter("mq_route_cache_hits_total",
		"Publishes resolved from the memoized route cache.")
	routeMisses := reg.Counter("mq_route_cache_misses_total",
		"Publishes that walked the binding indexes.")
	routeInvalidations := reg.Counter("mq_route_cache_invalidations_total",
		"Route-cache flushes caused by topology changes.")

	connected := reg.Gauge("live_connected_sockets",
		"Live push subscriptions currently attached.")
	liveDelivered := reg.Counter("live_delivered_total",
		"Events enqueued onto live socket mailboxes.")
	liveDropped := reg.Counter("live_dropped_total",
		"Events dropped because a live mailbox was full.")
	liveShed := reg.Counter("live_shed_total",
		"Live subscriptions disconnected for exhausting their send budget.")
	fanout := reg.Histogram("live_fanout_duration_seconds",
		"Per-publish live fan-out latency (trie match plus mailbox sends).",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1})
	catchups := reg.Counter("live_cursor_catchup_total",
		"Cursor catch-up reads served by GET /v1/observations.")
	s.broker.SetLiveHooks(mq.LiveHooks{
		Fanout: func(_ int, d time.Duration) { fanout.ObserveDuration(d) },
	})

	reg.OnCollect(func() {
		st, exchanges, queues, count := s.Channels.brokerCounts()
		for _, cls := range exchangeClasses {
			published.With(cls).Set(exchanges[cls].Published)
			unroutable.With(cls).Set(exchanges[cls].Unroutable)
		}
		// Every class is set, so a drained class reads 0 rather than
		// holding its last value.
		for _, cls := range queueClasses {
			q := queues[cls]
			enqueued.With(cls).Set(q.Published)
			delivered.With(cls).Set(q.Delivered)
			acked.With(cls).Set(q.Acked)
			nacked.With(cls).Set(q.Nacked)
			dropped.With(cls).Set(q.Dropped)
			overflowed.With(cls).Set(q.Overflowed)
			flowPaused.With(cls).Set(q.FlowPauses)
			flowResumed.With(cls).Set(q.FlowResumes)
			queueReady.With(cls).Set(float64(q.Ready))
			queueCount.With(cls).Set(float64(count[cls]))
		}
		flowPausedNow.Set(float64(len(s.broker.PausedQueues())))
		conns.Set(float64(st.Connections))
		bytesIn.Set(st.WireRead)
		bytesOut.Set(st.WireWritten)
		routeHits.Set(st.RouteCacheHits)
		routeMisses.Set(st.RouteCacheMisses)
		routeInvalidations.Set(st.RouteCacheInvalidations)

		connected.Set(float64(s.Live.Sockets()))
		liveDelivered.Set(st.LiveDelivered)
		liveDropped.Set(st.LiveDropped)
		liveShed.Set(st.LiveShed)
		catchups.Set(s.Live.CatchupReads())
	})
}

// instrumentIngest registers the ingest pipeline's families, read
// from the server's analytics at every scrape.
func (m *Metrics) instrumentIngest(a *Analytics) {
	ingested := m.reg.CounterVec("goflow_ingested_total",
		"Observations stored by the ingest pipeline, by app.", "app")
	rejected := m.reg.Counter("goflow_rejected_total",
		"Deliveries the ingest pipeline rejected.")
	m.reg.OnCollect(func() {
		byApp, rej := a.counts()
		for app, n := range byApp {
			ingested.With(app).Set(n)
		}
		rejected.Set(rej)
	})
}
