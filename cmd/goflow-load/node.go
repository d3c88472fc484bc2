package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// traceHeader carries a request's trace id to the handler decorator.
// Only traced runs send it.
const traceHeader = "X-Trace-ID"

type traceKey struct{}

// tracedNode is goflow-server assembled inside the harness from the
// public constructors cmd/goflow-server/main.go calls, in the same
// order, with timing decorators at the two seams that are already
// public: the storage.Engine handed to goflow.NewServer and the
// http.Handler handed to the HTTP server. Traced runs use it because
// spans cannot be taken inside a child process; end-to-end figures
// always come from the real binary.
type tracedNode struct {
	broker   *mq.Broker
	mqServer *mq.Server
	local    *storage.Local
	server   *goflow.Server
	sched    *predict.Scheduler
	httpSrv  *http.Server
	httpAddr string
	served   chan struct{}
}

func startNode(walDir string, policy wal.FsyncPolicy, tr *tracer) (*tracedNode, error) {
	n := &tracedNode{broker: mq.NewBroker(), served: make(chan struct{})}
	var err error
	if n.mqServer, err = mq.NewServer(n.broker, "127.0.0.1:0"); err != nil {
		n.broker.Close()
		return nil, err
	}
	n.local, err = storage.OpenLocal(storage.LocalOptions{
		WALDir: walDir,
		Policy: policy,
		Series: &storage.SeriesOptions{Options: series.Options{RollupBucket: 5 * time.Minute}},
	})
	if err != nil {
		n.mqServer.Close()
		n.broker.Close()
		return nil, err
	}
	n.server, err = goflow.NewServer(goflow.ServerConfig{
		Broker:  n.broker,
		Data:    &tracedEngine{Local: n.local, tr: tr},
		Predict: &predict.Config{Horizon: predict.DefaultHorizon},
	})
	if err != nil {
		n.stop()
		return nil, err
	}
	n.local.Series().SetPointObserver(n.server.LiveCache.Observe)

	reg := obs.NewRegistry()
	metrics := goflow.Instrument(reg, n.server, n.local.Store())
	metrics.InstrumentWAL(n.local.WAL())
	metrics.InstrumentSeries(n.local.Series())

	if _, err := soundcity.Register(n.server); err != nil {
		n.stop()
		return nil, err
	}
	if err := n.server.StartIngest(); err != nil {
		n.stop()
		return nil, err
	}
	n.sched = predict.NewScheduler(n.server.Predict, 2*time.Second, func(fcs map[string]predict.Forecast) {
		for zone, fc := range fcs {
			if soundcity.BandOf(fc.ValueDB) < soundcity.BandHigh {
				continue
			}
			if body, err := json.Marshal(fc); err == nil {
				key := soundcity.AppID + ".server." + soundcity.DatatypeForecast + "." + zone
				_, _ = n.broker.PublishAt(soundcity.AppID, key, nil, body, fc.GeneratedAt)
			}
		}
	})
	n.sched.Start()

	userAPI, err := soundcity.NewUserAPI(soundcity.APIConfig{Server: n.server, Store: n.local.Store(), Broker: n.broker})
	if err != nil {
		n.stop()
		return nil, err
	}
	mux := http.NewServeMux()
	api := goflow.NewInstrumentedHTTPHandler(n.server, reg)
	mux.Handle("/v1/", api)
	mux.Handle("/metrics", api)
	mux.Handle("/metrics.json", api)
	mux.Handle("/sc/", http.StripPrefix("/sc", userAPI))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	n.httpAddr = ln.Addr().String()
	n.httpSrv = &http.Server{Handler: traceHandler(tr, mux), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		_ = n.httpSrv.Serve(ln)
		close(n.served)
	}()
	return n, nil
}

// stop tears the node down in the server's drain order, without the
// final checkpoint: the temp directory is about to be removed.
func (n *tracedNode) stop() {
	if n.httpSrv != nil {
		if n.server != nil {
			n.server.Live.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = n.httpSrv.Shutdown(ctx)
		cancel()
		_ = n.httpSrv.Close()
		<-n.served
	}
	if n.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = n.server.ShutdownContext(ctx)
		cancel()
	}
	if n.sched != nil {
		n.sched.Stop()
	}
	n.mqServer.Close()
	if n.local != nil {
		_ = n.local.Close()
	}
	n.broker.Close()
}

// routeName maps a request to the per-route span suffix of the
// goflow.rest_handler_us.* metrics.
func routeName(r *http.Request) string {
	p := r.URL.Path
	has := func(suffix string) bool { return len(p) >= len(suffix) && p[len(p)-len(suffix):] == suffix }
	switch {
	case r.Method == http.MethodPost && has("/observations"):
		return "ingest"
	case has("/observations/count"):
		return "count"
	case has("/observations/export"):
		return "export"
	case has("/observations"):
		return "observations"
	case has("/noisemap/forecast"), has("/forecast"):
		return "forecast"
	case has("/noisemap"):
		return "noisemap"
	case has("/noise"):
		return "zone_noise"
	case has("/me/exposure"):
		return "exposure"
	case has("/quiet-route"):
		return "quiet_route"
	case has("/live/latest"):
		return "latest"
	default:
		return "other"
	}
}

// traceHandler is the http.Handler decorator: one span per request,
// named by route, under the trace id the client sent; the id travels on
// in the request context for the engine decorator below.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		idx := tr.begin("goflow.rest_handler."+routeName(r), id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, id)))
		tr.end(idx)
	})
}

// tracedEngine is the storage.Engine decorator. It embeds *storage.Local
// so that the optional interfaces the server discovers by type
// assertion (SeriesQuerier, RollupReader, CursorScanner, predict.Source)
// stay promoted, and overrides the calls on the ingest and read paths.
type tracedEngine struct {
	*storage.Local
	tr *tracer
}

// obsTrace is an observation's trace id: its unique sensing instant.
func obsTrace(doc storage.Doc) int64 {
	if t, ok := doc["sensedAt"].(time.Time); ok {
		return t.UnixNano()
	}
	return 0
}

func ctxTrace(ctx context.Context) int64 {
	id, _ := ctx.Value(traceKey{}).(int64)
	return id
}

func (e *tracedEngine) Insert(col string, doc storage.Doc) (string, error) {
	idx := e.tr.begin("storage.insert", obsTrace(doc))
	id, err := e.Local.Insert(col, doc)
	e.tr.end(idx)
	return id, err
}

func (e *tracedEngine) InsertMany(col string, docs []storage.Doc) ([]string, error) {
	var trace int64
	if len(docs) > 0 {
		trace = obsTrace(docs[0])
	}
	idx := e.tr.begin("storage.insert_many."+strconv.Itoa(len(docs)), trace)
	ids, err := e.Local.InsertMany(col, docs)
	e.tr.end(idx)
	return ids, err
}

func (e *tracedEngine) FindContext(ctx context.Context, col string, filter storage.Doc, opts docstore.FindOptions) ([]storage.Doc, error) {
	idx := e.tr.begin("storage.find", ctxTrace(ctx))
	docs, err := e.Local.FindContext(ctx, col, filter, opts)
	e.tr.end(idx)
	return docs, err
}

func (e *tracedEngine) CountContext(ctx context.Context, col string, filter storage.Doc) (int, error) {
	idx := e.tr.begin("storage.count", ctxTrace(ctx))
	n, err := e.Local.CountContext(ctx, col, filter)
	e.tr.end(idx)
	return n, err
}

func (e *tracedEngine) ScanAfter(ctx context.Context, col, afterID string, filter storage.Doc, limit int) ([]storage.Doc, error) {
	idx := e.tr.begin("storage.find", ctxTrace(ctx))
	docs, err := e.Local.ScanAfter(ctx, col, afterID, filter, limit)
	e.tr.end(idx)
	return docs, err
}

func (e *tracedEngine) SeriesZoneAggregate(ctx context.Context, zone string, from, to time.Time) (series.Agg, bool, error) {
	idx := e.tr.begin("storage.series_query", ctxTrace(ctx))
	agg, has, err := e.Local.SeriesZoneAggregate(ctx, zone, from, to)
	e.tr.end(idx)
	return agg, has, err
}

func (e *tracedEngine) SeriesNoisemap(ctx context.Context, from, to time.Time) (map[string]series.Agg, bool, error) {
	idx := e.tr.begin("storage.series_query", ctxTrace(ctx))
	m, has, err := e.Local.SeriesNoisemap(ctx, from, to)
	e.tr.end(idx)
	return m, has, err
}

var (
	_ storage.Engine        = (*tracedEngine)(nil)
	_ storage.SeriesQuerier = (*tracedEngine)(nil)
	_ storage.CursorScanner = (*tracedEngine)(nil)
	_ predict.Source        = (*tracedEngine)(nil)
)

// nodePolicy turns a workload's server flags into the WAL policy the
// in-process node must open with.
func nodePolicy(flags []string) (wal.FsyncPolicy, error) {
	for i, f := range flags {
		if f == "-fsync-policy" && i+1 < len(flags) {
			return wal.ParseFsyncPolicy(flags[i+1])
		}
	}
	p, err := wal.ParseFsyncPolicy("grouped")
	if err != nil {
		return p, fmt.Errorf("default fsync policy: %w", err)
	}
	return p, nil
}
