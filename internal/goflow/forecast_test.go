package goflow

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
)

var forecastTestAsOf = time.Date(2026, 5, 6, 9, 0, 0, 0, time.UTC)

// newForecastServer builds a predict-enabled server over a series
// engine, seeds one warm zone with six 5-minute buckets of history,
// and returns the instrumented handler plus the warm zone's id.
func newForecastServer(t *testing.T) (http.Handler, *obs.Registry, string) {
	t.Helper()
	broker := mq.NewBroker()
	engine := seriesEngine(t)
	store := engine.Store()
	server, err := NewServer(ServerConfig{
		Broker:  broker,
		Data:    engine,
		Clock:   simclock.NewSim(forecastTestAsOf),
		Predict: &predict.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	for b := 6; b >= 1; b-- {
		for j := 0; j < 3; j++ {
			o := obsAt(t, "LGE NEXUS 5", 70+float64(j), true,
				forecastTestAsOf.Add(-time.Duration(b)*5*time.Minute+time.Duration(j)*time.Second))
			if _, err := server.Data.Ingest("SC", cl.ID, o, o.SensedAt); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := obs.NewRegistry()
	Instrument(reg, server, store)
	handler := NewInstrumentedHTTPHandler(server, reg)
	warm := geo.ParisZones().ZoneID(geo.Point{Lat: 48.8566, Lon: 2.3522})
	return handler, reg, warm
}

func TestForecastEndpoints(t *testing.T) {
	handler, _, warm := newForecastServer(t)

	// Warm zone: a forecast with the model's full diagnostics.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/zones/"+warm+"/forecast", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm zone forecast = %d: %s", rec.Code, rec.Body.String())
	}
	var fc struct {
		Zone    string  `json:"zone"`
		ValueDB float64 `json:"valueDb"`
		Buckets int     `json:"buckets"`
		Basis   string  `json:"basis"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&fc); err != nil {
		t.Fatal(err)
	}
	if fc.Zone != warm || fc.Buckets < 4 || fc.Basis == "" {
		t.Fatalf("forecast body %+v", fc)
	}
	if fc.ValueDB < 60 || fc.ValueDB > 80 {
		t.Fatalf("forecast over a ~71 dB history predicted %.1f dB", fc.ValueDB)
	}

	// Cold zone: 404, distinguishable from "not enabled".
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/zones/FR75001/forecast", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("cold zone forecast = %d, want 404", rec.Code)
	}

	// City sweep: exactly the one warm zone, sorted envelope.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/noisemap/forecast", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("noisemap forecast = %d", rec.Code)
	}
	var sweep struct {
		Horizon string             `json:"horizon"`
		Count   int                `json:"count"`
		Zones   []predict.Forecast `json:"zones"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Count != 1 || len(sweep.Zones) != 1 || sweep.Zones[0].Zone != warm {
		t.Fatalf("sweep body %+v", sweep)
	}
	if sweep.Horizon != predict.DefaultHorizon.String() {
		t.Fatalf("horizon %q, want %q", sweep.Horizon, predict.DefaultHorizon)
	}
}

// TestNoisemapForecastColdCity: with no warm zone there is no forecast
// to borrow a timestamp from, and the answer used to be stamped year
// 0001. It is stamped with the sweep's own instant, like a warm one.
func TestNoisemapForecastColdCity(t *testing.T) {
	broker := mq.NewBroker()
	engine := seriesEngine(t)
	server, err := NewServer(ServerConfig{
		Broker:  broker,
		Data:    engine,
		Clock:   simclock.NewSim(forecastTestAsOf),
		Predict: &predict.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	rec := httptest.NewRecorder()
	NewInstrumentedHTTPHandler(server, obs.NewRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/noisemap/forecast", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cold city forecast = %d: %s", rec.Code, rec.Body.String())
	}
	var sweep struct {
		GeneratedAt time.Time `json:"generatedAt"`
		Target      time.Time `json:"target"`
		Count       int       `json:"count"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Count != 0 {
		t.Fatalf("empty series forecast %d zones", sweep.Count)
	}
	if !sweep.GeneratedAt.Equal(forecastTestAsOf) || !sweep.Target.Equal(forecastTestAsOf.Add(predict.DefaultHorizon)) {
		t.Fatalf("cold city stamped generatedAt %v target %v, want the simulated now %v and now+%v",
			sweep.GeneratedAt, sweep.Target, forecastTestAsOf, predict.DefaultHorizon)
	}
}

func TestForecastEndpointsDisabled(t *testing.T) {
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	handler := NewInstrumentedHTTPHandler(server, obs.NewRegistry())
	for _, path := range []string{"/v1/zones/FR75001/forecast", "/v1/noisemap/forecast"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("GET %s on a predict-less server = %d, want 501", path, rec.Code)
		}
	}
}

func TestPredictMetricsExposed(t *testing.T) {
	handler, _, warm := newForecastServer(t)
	for _, path := range []string{
		"/v1/zones/" + warm + "/forecast", // outcome=forecast
		"/v1/zones/FR75001/forecast",      // outcome=cold
		"/v1/noisemap/forecast",           // one sweep
	} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`predict_sweeps_total 1`,
		`predict_forecast_zones 1`,
		`predict_zone_forecasts_total{outcome="forecast"} 1`,
		`predict_zone_forecasts_total{outcome="cold"} 1`,
		`predict_sweep_duration_seconds_count 1`,
		`predict_zone_forecast_duration_seconds_count 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// seriesEngine is a memory-only engine with a series view, opened the
// way the server opens one.
func seriesEngine(t testing.TB) *storage.Local {
	t.Helper()
	l, err := storage.OpenLocal(storage.LocalOptions{Series: &storage.SeriesOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}
