package soundcity

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/sensing"
)

// The SoundCity user-facing API (the Web application of Figure 1):
// the server "maintains data about the contributing users in an
// anonymized way, so that specific contributions may be retrieved
// provided the user's credentials". Users authenticate with their
// client id (the shared secret issued at login) and can retrieve
// their own observations, their quantified-self exposure report,
// their visible journeys, and submit qualitative feedback.
//
// Routes (all under the handler's root):
//
//	GET  /me/observations        own contributions (X-Client-ID)
//	GET  /me/exposure            daily/monthly exposure report
//	GET  /me/journeys            journeys visible to the user
//	GET  /noisemap               city noise map with health bands
//	POST /feedback               submit a feedback report
//	POST /quiet-route            quieter-path suggestion from forecasts
type userAPI struct {
	server *goflow.Server
	store  *docstore.Store
	broker *mq.Broker
	zones  *geo.ZoneGrid
	trips  *JourneyStore
}

// APIConfig wires the user API.
type APIConfig struct {
	// Server is the GoFlow server (required).
	Server *goflow.Server
	// Store is the document store backing observations and journeys
	// (required).
	Store *docstore.Store
	// Broker routes feedback; nil disables feedback submission.
	Broker *mq.Broker
}

// NewUserAPI builds the user-facing handler.
func NewUserAPI(cfg APIConfig) (http.Handler, error) {
	if cfg.Server == nil || cfg.Store == nil {
		return nil, errors.New("soundcity: user API needs a server and a store")
	}
	zones := geo.ParisZones() // feedback zones
	api := &userAPI{
		server: cfg.Server,
		store:  cfg.Store,
		broker: cfg.Broker,
		zones:  zones,
		trips:  NewJourneyStore(cfg.Store, cfg.Broker, zones),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /me/observations", api.myObservations)
	mux.HandleFunc("GET /me/exposure", api.myExposure)
	mux.HandleFunc("GET /me/journeys", api.myJourneys)
	mux.HandleFunc("GET /noisemap", api.noisemap)
	mux.HandleFunc("POST /feedback", api.postFeedback)
	// Quiet routing is a forecast read: analytics class, first to shed
	// under overload, never ahead of ingest.
	mux.HandleFunc("POST /quiet-route", cfg.Server.Guard.Guard(guard.ClassAnalytics, api.quietRoute))
	return mux, nil
}

// authenticate resolves the X-Client-ID credential to the client
// record; it writes the error response itself when authentication
// fails.
func (a *userAPI) authenticate(w http.ResponseWriter, r *http.Request) (*goflow.Client, bool) {
	id := r.Header.Get("X-Client-ID")
	if id == "" {
		writeUserErr(w, http.StatusUnauthorized, "missing X-Client-ID credential")
		return nil, false
	}
	client, err := a.server.Accounts.Client(id)
	if err != nil {
		writeUserErr(w, http.StatusUnauthorized, "unknown credential")
		return nil, false
	}
	if client.AppID != AppID {
		writeUserErr(w, http.StatusForbidden, "credential belongs to another app")
		return nil, false
	}
	return client, true
}

func writeUserErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeUserJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// myObservations returns the caller's own stored contributions.
func (a *userAPI) myObservations(w http.ResponseWriter, r *http.Request) {
	client, ok := a.authenticate(w, r)
	if !ok {
		return
	}
	rows, err := a.server.Data.Retrieve(r.Context(), goflow.Query{
		AppID:  AppID,
		UserID: client.AnonID,
		Limit:  10000,
	})
	if err != nil {
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	goflow.WriteObservationPage(w, rows, nil, "")
}

// myExposure computes the caller's quantified-self report from their
// stored contributions.
func (a *userAPI) myExposure(w http.ResponseWriter, r *http.Request) {
	client, ok := a.authenticate(w, r)
	if !ok {
		return
	}
	rows, err := a.server.Data.Retrieve(r.Context(), goflow.Query{AppID: AppID, UserID: client.AnonID})
	if err != nil {
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	// One Observation serves every row: the report is a fold, over the
	// levels as stored (no calibration database is served).
	fold := newExposureFold(client.AnonID, nil)
	var o sensing.Observation
	for _, row := range rows {
		if goflow.FillObservation(&o, row) != nil {
			continue // tolerate legacy documents
		}
		fold.add(&o)
	}
	report, err := fold.report()
	if err != nil {
		writeUserErr(w, http.StatusNotFound, "no contributions yet")
		return
	}
	writeUserJSON(w, report)
}

// myJourneys lists the journeys visible to the caller.
func (a *userAPI) myJourneys(w http.ResponseWriter, r *http.Request) {
	client, ok := a.authenticate(w, r)
	if !ok {
		return
	}
	communities := r.URL.Query()["community"]
	docs, err := a.trips.Visible(client.AnonID, communities)
	if err != nil {
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeUserJSON(w, map[string]any{"count": len(docs), "journeys": docs})
}

// noisemapZone is one zone of the city noise map: the aggregate
// sound level classified into the exposure health bands users already
// know from their personal reports.
type noisemapZone struct {
	goflow.NoiseStats
	Band HealthBand `json:"band"`
}

// noisemap renders the city-wide noise map for the dashboard. The
// window defaults to the last 24 hours; hours=N narrows it. Answers
// come from the series engine's continuous rollups when the storage
// engine carries one, so the map stays interactive at tens of
// millions of stored observations.
func (a *userAPI) noisemap(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.authenticate(w, r); !ok {
		return
	}
	to := time.Now()
	window := 24 * time.Hour
	if s := r.URL.Query().Get("hours"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 || n > 24*365 {
			writeUserErr(w, http.StatusBadRequest, "bad 'hours' parameter")
			return
		}
		window = time.Duration(n) * time.Hour
	}
	stats, err := a.server.Data.Noisemap(r.Context(), to.Add(-window), to)
	if err != nil {
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	zones := make([]noisemapZone, 0, len(stats))
	for _, st := range stats {
		if st.Count == 0 {
			continue
		}
		zones = append(zones, noisemapZone{NoiseStats: st, Band: BandOf(st.LAeq)})
	}
	writeUserJSON(w, map[string]any{"count": len(zones), "zones": zones})
}

// feedbackRequest is the POST /feedback body.
type feedbackRequest struct {
	Where     geo.Point `json:"where"`
	Annoyance int       `json:"annoyance"`
	Comment   string    `json:"comment,omitempty"`
}

// postFeedback routes a qualitative report through the broker.
func (a *userAPI) postFeedback(w http.ResponseWriter, r *http.Request) {
	client, ok := a.authenticate(w, r)
	if !ok {
		return
	}
	if a.broker == nil {
		writeUserErr(w, http.StatusServiceUnavailable, "feedback routing disabled")
		return
	}
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeUserErr(w, http.StatusBadRequest, "bad request body")
		return
	}
	f := &Feedback{
		Reporter:  client.AnonID,
		Where:     req.Where,
		Annoyance: req.Annoyance,
		Comment:   req.Comment,
		At:        time.Now(),
	}
	if err := f.Validate(); err != nil {
		writeUserErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := PublishFeedback(a.broker, a.zones, client.ID, f); err != nil {
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeUserJSON(w, map[string]string{"status": "routed"})
}

// quietRouteRequest is the POST /quiet-route body.
type quietRouteRequest struct {
	From geo.Point `json:"from"`
	To   geo.Point `json:"to"`
}

// quietRoutePath is a candidate path with its predicted exposure
// classified into the health bands users know from their reports.
type quietRoutePath struct {
	predict.Path
	Band HealthBand `json:"band"`
}

// quietRouteResponse mirrors predict.RouteSuggestion with banded paths.
type quietRouteResponse struct {
	Default     quietRoutePath  `json:"default"`
	Alternative *quietRoutePath `json:"alternative,omitempty"`
	Rerouted    bool            `json:"rerouted"`
	ThresholdDB float64         `json:"thresholdDb"`
	GeneratedAt time.Time       `json:"generatedAt"`
	Target      time.Time       `json:"target"`
}

// quietRoute extends the Journey mode into navigation: score the
// caller's origin→destination path by predicted exposure and propose a
// quieter alternative when the default's forecast crosses the
// health-band threshold. Accepted reroutes are announced through the
// broker so live subscribers (and the user's other devices) see them.
func (a *userAPI) quietRoute(w http.ResponseWriter, r *http.Request) {
	client, ok := a.authenticate(w, r)
	if !ok {
		return
	}
	if a.server.Reroute == nil {
		writeUserErr(w, http.StatusNotImplemented,
			"quiet routing not enabled on this server (start with -predict over a -series engine)")
		return
	}
	var req quietRouteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeUserErr(w, http.StatusBadRequest, "bad request body")
		return
	}
	if err := req.From.Validate(); err != nil {
		writeUserErr(w, http.StatusBadRequest, "bad 'from' point: "+err.Error())
		return
	}
	if err := req.To.Validate(); err != nil {
		writeUserErr(w, http.StatusBadRequest, "bad 'to' point: "+err.Error())
		return
	}
	sug, err := a.server.Reroute.QuietRoute(r.Context(), req.From, req.To)
	switch {
	case errors.Is(err, predict.ErrOutsideArea):
		writeUserErr(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, predict.ErrNoSeries):
		writeUserErr(w, http.StatusNotImplemented, err.Error())
		return
	case err != nil:
		writeUserErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := quietRouteResponse{
		Default:     quietRoutePath{Path: sug.Default, Band: BandOf(sug.Default.LAeqDB)},
		Rerouted:    sug.Rerouted,
		ThresholdDB: sug.ThresholdDB,
		GeneratedAt: sug.GeneratedAt,
		Target:      sug.Target,
	}
	if sug.Alternative != nil {
		resp.Alternative = &quietRoutePath{Path: *sug.Alternative, Band: BandOf(sug.Alternative.LAeqDB)}
	}
	if sug.Rerouted && a.broker != nil {
		a.announceReroute(client.ID, req.From, &resp)
	}
	writeUserJSON(w, resp)
}

// announceReroute publishes an accepted reroute on the client's
// exchange keyed by the journey's start zone, mirroring the feedback
// route: zone subscribers (PR 8 live feeds included) see which areas
// navigation is steering users away from. Best effort — a full broker
// must not fail the routing answer.
func (a *userAPI) announceReroute(clientID string, from geo.Point, resp *quietRouteResponse) {
	body, err := json.Marshal(resp)
	if err != nil {
		return
	}
	zone := a.zones.ZoneID(from)
	key := AppID + "." + clientID + "." + DatatypeReroute + "." + zone
	_, _ = a.broker.PublishAt("E."+clientID, key, nil, body, resp.GeneratedAt)
}
