package goflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/sensing"
)

// REST API (Figure 2): clients and administrators authenticate and
// register publishers/subscribers, retrieve crowd-sensed data with
// filter parameters, manage accounts and submit background jobs.
//
// Routes:
//
//	POST /v1/apps                         register an app
//	POST /v1/apps/{app}/login             register a client, provision channels
//	POST /v1/apps/{app}/subscriptions     subscribe a client to datatype@zone
//	GET  /v1/apps/{app}/observations      retrieve with filters
//	GET  /v1/apps/{app}/observations/count
//	GET  /v1/apps/{app}/analytics
//	GET  /v1/apps/{app}/zones/{zone}/noise  per-zone noise summary
//	GET  /v1/apps/{app}/noisemap          noise summary of every zone
//	GET  /v1/zones/{zone}/forecast        T+30 exposure forecast for a zone
//	GET  /v1/noisemap/forecast            forecast for every warm zone
//	POST /v1/apps/{app}/jobs              submit a background job
//	GET  /v1/jobs/{id}                    job status
//	GET  /v1/healthz
type apiHandler struct {
	server *Server
}

// register mounts the API routes on mux, each behind the admission
// chain for its priority class: ingest outranks channel/data queries,
// which outrank analytics and export — under overload the server
// degrades dashboards first and refuses sensed observations last.
// The health probe is never guarded: load balancers must see a
// draining server as alive while it finishes in-flight work.
func (h *apiHandler) register(mux *http.ServeMux) {
	g := h.server.Guard.Guard
	mux.HandleFunc("GET /v1/healthz", h.health)
	mux.HandleFunc("POST /v1/apps", g(guard.ClassQuery, h.registerApp))
	mux.HandleFunc("POST /v1/apps/{app}/login", g(guard.ClassQuery, h.login))
	mux.HandleFunc("POST /v1/apps/{app}/subscriptions", g(guard.ClassQuery, h.subscribe))
	mux.HandleFunc("POST /v1/apps/{app}/observations", g(guard.ClassIngest, h.ingestObservations))
	mux.HandleFunc("GET /v1/apps/{app}/observations", g(guard.ClassQuery, h.observations))
	mux.HandleFunc("GET /v1/apps/{app}/observations/count", g(guard.ClassQuery, h.observationCount))
	mux.HandleFunc("GET /v1/apps/{app}/observations/export", g(guard.ClassAnalytics, h.exportObservations))
	mux.HandleFunc("GET /v1/apps/{app}/analytics", g(guard.ClassAnalytics, h.analytics))
	mux.HandleFunc("GET /v1/apps/{app}/zones/{zone}/noise", g(guard.ClassAnalytics, h.zoneNoise))
	mux.HandleFunc("GET /v1/apps/{app}/noisemap", g(guard.ClassAnalytics, h.noisemap))
	mux.HandleFunc("GET /v1/zones/{zone}/forecast", g(guard.ClassAnalytics, h.zoneForecast))
	mux.HandleFunc("GET /v1/noisemap/forecast", g(guard.ClassAnalytics, h.noisemapForecast))
	mux.HandleFunc("POST /v1/apps/{app}/jobs", g(guard.ClassAnalytics, h.submitJob))
	mux.HandleFunc("GET /v1/jobs/{id}", g(guard.ClassAnalytics, h.jobStatus))
	// Live streams admit themselves (AdmitLive inside — see
	// live_http.go for why they bypass the Guard wrapper); the latest
	// cache is an ordinary bounded query.
	mux.HandleFunc("GET /v1/live/sse", h.liveSSE)
	mux.HandleFunc("GET /v1/live/latest", g(guard.ClassQuery, h.liveLatest))
}

// NewInstrumentedHTTPHandler exposes the server's REST API with its
// observability: the API routes are wrapped in the obs HTTP middleware
// (request counts by route pattern and status class, latency
// histograms, response bytes, in-flight gauge) and the registry itself
// is exposed at GET /metrics (Prometheus text format) and GET
// /metrics.json. Route labels use the
// registered patterns — "/v1/apps/{app}/observations", not raw URLs —
// so label cardinality stays bounded no matter how many apps exist.
func NewInstrumentedHTTPHandler(s *Server, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	(&apiHandler{server: s}).register(mux)
	mux.Handle("GET /metrics", obs.Handler(reg))
	mux.Handle("GET /metrics.json", obs.JSONHandler(reg))
	m := obs.NewHTTPMetrics(reg)
	return obs.InstrumentHandler(m, obs.NormalizeByMux(mux), mux)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrPayloadTooLarge reports an ingest body over the configured cap.
var ErrPayloadTooLarge = errors.New("goflow: payload too large")

// writeErr maps domain errors to HTTP statuses.
// notLeaderHeaders reports whether err means this replica cannot take
// the write — an unpromoted follower, or a fenced ex-leader
// (ErrStaleTerm wrapped underneath) — and if so sets the redirect
// headers. The condition is temporary by design: failover elects a
// successor within a few lease TTLs, so the client is told to retry,
// and when the node knows who leads now, where.
func notLeaderHeaders(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, cluster.ErrNotLeader) {
		return false
	}
	w.Header().Set("Retry-After", "1")
	var notLeader *cluster.NotLeaderError
	if errors.As(err, &notLeader) {
		if hint := notLeader.Hint(); hint != "" {
			w.Header().Set("X-Leader-Hint", hint)
		}
	}
	return true
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case notLeaderHeaders(w, err):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrAppNotFound), errors.Is(err, ErrClientNotFound), errors.Is(err, ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrAppExists):
		status = http.StatusConflict
	case errors.Is(err, ErrBadCredentials):
		status = http.StatusUnauthorized
	case errors.Is(err, ErrPayloadTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadCursor):
		status = http.StatusBadRequest
	case errors.Is(err, docstore.ErrCursorGone):
		// The anchor is unrecoverable: the client restarts its scan.
		status = http.StatusGone
	case errors.Is(err, ErrCursorUnsupported):
		status = http.StatusNotImplemented
	case errors.Is(err, predict.ErrNoSeries):
		// Forecasting is wired but the engine lost its series view —
		// same "not available here" contract as the disabled case.
		status = http.StatusNotImplemented
	case errors.Is(err, predict.ErrOutsideArea):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The backend outlived its deadline: the admission timeout or
		// client disconnect cancelled the docstore scan mid-flight.
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (h *apiHandler) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type registerAppRequest struct {
	ID     string     `json:"id"`
	Name   string     `json:"name"`
	Policy DataPolicy `json:"policy"`
}

func (h *apiHandler) registerApp(w http.ResponseWriter, r *http.Request) {
	var req registerAppRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body"})
		return
	}
	app, err := h.server.RegisterApp(req.ID, req.Name, req.Policy)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":     app.ID,
		"secret": app.Secret,
	})
}

func (h *apiHandler) login(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	c, err := h.server.Login(appID)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, c)
}

type subscribeRequest struct {
	ClientID string `json:"clientId"`
	Datatype string `json:"datatype"`
	Zone     string `json:"zone"`
}

func (h *apiHandler) subscribe(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	var req subscribeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body"})
		return
	}
	if req.ClientID == "" || req.Datatype == "" || req.Zone == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "clientId, datatype and zone are required"})
		return
	}
	if _, err := h.server.Accounts.Client(req.ClientID); err != nil {
		writeErr(w, err)
		return
	}
	if err := h.server.Channels.Subscribe(appID, req.ClientID, req.Datatype, req.Zone); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "subscribed"})
}

// queryFromRequest decodes filter parameters from the URL.
func queryFromRequest(r *http.Request, appID string) Query {
	q := Query{AppID: appID}
	get := r.URL.Query().Get
	q.DeviceModel = get("model")
	q.Provider = get("provider")
	q.Mode = get("mode")
	q.AppVersion = get("version")
	q.Zone = get("zone")
	q.UserID = get("user")
	if v := get("localized"); v != "" {
		b := v == "true" || v == "1"
		q.Localized = &b
	}
	if v := get("from"); v != "" {
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			q.From = &t
		}
	}
	if v := get("to"); v != "" {
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			q.To = &t
		}
	}
	if v := get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			q.Limit = n
		}
	}
	if v := get("skip"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			q.Skip = n
		}
	}
	return q
}

// maxIngestBytes caps an HTTP ingest body: a day of buffered
// observations fits comfortably; anything larger is a bug or abuse.
const maxIngestBytes = 1 << 20

// ingestBufs recycles the buffers ingest bodies are read into. The
// body cap also bounds what a pooled buffer holds on to.
var ingestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ingestObservations stores a batch of sensed observations uploaded
// over HTTP — the fallback transport for clients that cannot hold a
// broker connection. The body is hard-capped: overload protection
// starts at the socket, not after an unbounded read. It is read whole
// and decoded whole, so anything after the body's one JSON value is a
// bad request, not data to drop. Every observation is stamped with the
// server's receive instant, whatever the client sent as receivedAt.
func (h *apiHandler) ingestObservations(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	buf := ingestBufs.Get().(*bytes.Buffer)
	defer ingestBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, ErrPayloadTooLarge)
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body"})
		return
	}
	req, err := sensing.DecodeIngestBody(buf.Bytes())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body"})
		return
	}
	if req.ClientID == "" || len(req.Observations) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "clientId and observations are required"})
		return
	}
	if _, err := h.server.Accounts.App(appID); err != nil {
		writeErr(w, err)
		return
	}
	receivedAt := h.server.clock.Now()
	for _, o := range req.Observations {
		if o != nil {
			o.ReceivedAt = receivedAt
		}
	}
	stored, err := h.server.BulkIngest(appID, req.ClientID, req.Observations)
	if err != nil {
		// The valid prefix is stored; report both. A not-leader
		// refusal keeps its retry semantics here too — 503 plus the
		// leader hint — instead of masquerading as a bad request.
		status := http.StatusBadRequest
		if notLeaderHeaders(w, err) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"error":  err.Error(),
			"stored": stored,
		})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"stored": stored})
}

// observations serves one bounded page of an app's observations — by
// offset, sorted by sensing time, or with ?cursor= in arrival order
// (see observationsCursor) — to the app itself or, under its open-data
// policy, to ?requester=. The page leaves through
// WriteObservationPage, which encodes it whole before it answers.
func (h *apiHandler) observations(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	q := queryFromRequest(r, appID)
	if q.Limit == 0 || q.Limit > 10000 {
		q.Limit = 10000 // packaging: bounded JSON pages
	}
	requester := r.URL.Query().Get("requester")
	if requester == "" {
		requester = appID
	}
	keep, err := h.server.Data.Visible(appID, requester)
	if err != nil {
		writeErr(w, err)
		return
	}
	if r.URL.Query().Has("cursor") {
		h.observationsCursor(w, r, q, keep)
		return
	}
	rows, err := h.server.Data.Retrieve(r.Context(), q)
	if err != nil {
		writeErr(w, err)
		return
	}
	WriteObservationPage(w, rows, keep, "")
}

// observationsCursor serves the cursor form of the observations read:
// ?cursor= (empty) starts a walk, ?cursor=<token> resumes one, and
// every page carries nextCursor while more data may follow. This is
// the catch-up half of the live layer's exactly-once story — a client
// whose stream dropped replays what it missed from its last anchor.
// The anchor is the last row's _id whether or not the requester's
// policy lets the id itself through.
func (h *apiHandler) observationsCursor(w http.ResponseWriter, r *http.Request, q Query, keep func(string) bool) {
	afterID := ""
	if token := r.URL.Query().Get("cursor"); token != "" {
		id, err := DecodeCursor(token)
		if err != nil {
			writeErr(w, err)
			return
		}
		afterID = id
	}
	rows, lastID, err := h.server.Data.RetrieveAfter(r.Context(), afterID, q)
	if err != nil {
		writeErr(w, err)
		return
	}
	h.server.Live.RecordCatchup()
	nextCursor := ""
	if lastID != "" {
		nextCursor = EncodeCursor(lastID)
	}
	WriteObservationPage(w, rows, keep, nextCursor)
}

// exportObservations streams the full matching result set as NDJSON
// or CSV (the "packaging solutions" of Figure 2), applying the
// owner's open-data policy for foreign requesters. Unlike a page, an
// export is an unbounded stream and is sent as it is encoded: a
// failure after the first bytes — an unencodable document, a store
// error on a later page — cannot change the 200 already sent and shows
// as a stream that stops short.
func (h *apiHandler) exportObservations(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	format, err := ParseExportFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	requester := r.URL.Query().Get("requester")
	if requester == "" {
		requester = appID
	}
	q := queryFromRequest(r, appID)
	switch format {
	case CSV:
		w.Header().Set("Content-Type", "text/csv")
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	// The request's context ends the export when the client hangs up.
	_, _ = h.server.Data.Export(r.Context(), w, appID, requester, q, format)
}

func (h *apiHandler) observationCount(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	n, err := h.server.Data.Count(r.Context(), queryFromRequest(r, appID))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"count": n})
}

func (h *apiHandler) analytics(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	st, ok := h.server.Analytics.ForApp(appID)
	if !ok {
		writeJSON(w, http.StatusOK, AppAnalytics{AppID: appID})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// noiseRange parses the from/to query parameters (RFC 3339). The
// default window is the last 24 hours, matching the dashboard's
// opening view.
func noiseRange(r *http.Request) (time.Time, time.Time, error) {
	to := time.Now()
	from := to.Add(-24 * time.Hour)
	if s := r.URL.Query().Get("to"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return time.Time{}, time.Time{}, errors.New("bad 'to' timestamp: want RFC 3339")
		}
		to = t
		from = to.Add(-24 * time.Hour)
	}
	if s := r.URL.Query().Get("from"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return time.Time{}, time.Time{}, errors.New("bad 'from' timestamp: want RFC 3339")
		}
		from = t
	}
	return from, to, nil
}

// zoneNoise summarizes one zone's sound level: rollup-backed when the
// engine has a series attached, document scan otherwise.
func (h *apiHandler) zoneNoise(w http.ResponseWriter, r *http.Request) {
	from, to, err := noiseRange(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	st, err := h.server.Data.ZoneNoise(r.Context(), r.PathValue("zone"), from, to)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// noisemap summarizes every zone's sound level over the range.
func (h *apiHandler) noisemap(w http.ResponseWriter, r *http.Request) {
	from, to, err := noiseRange(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	zones, err := h.server.Data.Noisemap(r.Context(), from, to)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from":  from,
		"to":    to,
		"count": len(zones),
		"zones": zones,
	})
}

type submitJobRequest struct {
	Name string `json:"name"`
}

// submitJob requires the app's secret (manager capability): jobs run
// arbitrary registered scripts over the app's data.
func (h *apiHandler) submitJob(w http.ResponseWriter, r *http.Request) {
	appID := r.PathValue("app")
	if err := h.server.Accounts.AuthenticateApp(appID, r.Header.Get("X-App-Secret")); err != nil {
		writeErr(w, err)
		return
	}
	var req submitJobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body"})
		return
	}
	id, err := h.server.Jobs.Submit(appID, req.Name)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"jobId": id})
}

func (h *apiHandler) jobStatus(w http.ResponseWriter, r *http.Request) {
	job, err := h.server.Jobs.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}
