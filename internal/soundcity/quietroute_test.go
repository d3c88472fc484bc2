package soundcity

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
)

// The quiet-route acceptance path, end to end: seeded observations
// ingested through the real server pipeline land in the series
// rollups, the forecaster predicts a loud corridor across the city,
// and POST /quiet-route answers with a lower-predicted-exposure
// alternative when the straight path's forecast crosses the
// health-band threshold.

var quietRouteAsOf = time.Date(2026, 5, 4, 17, 30, 0, 0, time.UTC)

type quietRouteEnv struct {
	server *goflow.Server
	broker *mq.Broker
	grid   *geo.ZoneGrid
	ts     *httptest.Server
	client *goflow.Client
}

func newQuietRouteEnv(t *testing.T) *quietRouteEnv {
	t.Helper()
	broker := mq.NewBroker()
	engine, err := storage.OpenLocal(storage.LocalOptions{Series: &storage.SeriesOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	store := engine.Store()
	grid := geo.ParisZones()
	server, err := goflow.NewServer(goflow.ServerConfig{
		Broker:  broker,
		Data:    engine,
		Clock:   simclock.NewSim(quietRouteAsOf),
		Predict: &predict.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	if _, err := Register(server); err != nil {
		t.Fatal(err)
	}
	client, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewUserAPI(APIConfig{Server: server, Store: store, Broker: broker})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return &quietRouteEnv{server: server, broker: broker, grid: grid, ts: ts, client: client}
}

// seedLoudCorridor ingests a deterministic observation stream that
// makes the grid's middle row loud (~loudDB) except for a quiet gap at
// the western edge, leaving every other zone cold (the rerouter's
// unknown-zone default, which is quiet). Six 5-minute buckets per
// corridor zone — enough recent history for the forecaster's warm-zone
// gate.
func (e *quietRouteEnv) seedLoudCorridor(t *testing.T, loudDB float64) (loudRow int) {
	t.Helper()
	loudRow = e.grid.Rows() / 2
	gapCol := 0
	var obs []*sensing.Observation
	for col := 0; col < e.grid.Cols(); col++ {
		if col == gapCol {
			continue
		}
		center := e.grid.CellCenter(loudRow, col)
		for b := 6; b >= 1; b-- {
			for j := 0; j < 3; j++ {
				obs = append(obs, &sensing.Observation{
					UserID:             "seed",
					DeviceModel:        "LGE NEXUS 5",
					Mode:               sensing.Opportunistic,
					SPL:                loudDB + float64(j-1), // loudDB ± 1
					Loc:                &sensing.Location{Point: center, AccuracyM: 10, Provider: sensing.ProviderGPS},
					Activity:           sensing.ActivityStill,
					ActivityConfidence: 0.9,
					SensedAt:           quietRouteAsOf.Add(-time.Duration(b)*5*time.Minute + time.Duration(j)*time.Second),
				})
			}
		}
	}
	if _, err := e.server.BulkIngest(AppID, e.client.ID, obs); err != nil {
		t.Fatal(err)
	}
	return loudRow
}

func (e *quietRouteEnv) postQuietRoute(t *testing.T, credential string, from, to geo.Point) (*http.Response, quietRouteResponse) {
	t.Helper()
	body, err := json.Marshal(quietRouteRequest{From: from, To: to})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/quiet-route", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if credential != "" {
		req.Header.Set("X-Client-ID", credential)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out quietRouteResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, out
}

func TestQuietRouteEndToEnd(t *testing.T) {
	env := newQuietRouteEnv(t)
	env.seedLoudCorridor(t, 85)

	// Watch the app exchange for the reroute announcement.
	if err := env.broker.DeclareQueue("q-reroutes", mq.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := env.broker.BindQueue("q-reroutes", AppID, "SC.*."+DatatypeReroute+".#"); err != nil {
		t.Fatal(err)
	}

	from := env.grid.CellCenter(0, env.grid.Cols()/2)
	to := env.grid.CellCenter(env.grid.Rows()-1, env.grid.Cols()/2)
	resp, out := env.postQuietRoute(t, env.client.ID, from, to)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet-route = %d, want 200", resp.StatusCode)
	}
	if out.Default.LAeqDB < out.ThresholdDB {
		t.Fatalf("default path through the 85 dB corridor scored %.1f dB, expected above the %.0f dB threshold",
			out.Default.LAeqDB, out.ThresholdDB)
	}
	if !out.Rerouted || out.Alternative == nil {
		t.Fatalf("expected a quieter alternative, got %+v", out)
	}
	if out.Alternative.LAeqDB >= out.Default.LAeqDB {
		t.Fatalf("alternative %.1f dB is not quieter than default %.1f dB",
			out.Alternative.LAeqDB, out.Default.LAeqDB)
	}
	if out.Default.Band < BandHigh {
		t.Fatalf("default band %v, want >= high", out.Default.Band)
	}
	if out.Alternative.Band >= out.Default.Band {
		t.Fatalf("alternative band %v not better than default %v", out.Alternative.Band, out.Default.Band)
	}
	if got := out.Target.Sub(out.GeneratedAt); got <= 0 {
		t.Fatalf("forecast target %v not after generation %v", out.Target, out.GeneratedAt)
	}

	// The reroute was announced on the app exchange, keyed by the
	// journey's start zone.
	d := nextDelivery(t, env.broker, "q-reroutes")
	wantKey := AppID + "." + env.client.ID + "." + DatatypeReroute + "." + env.grid.ZoneID(from)
	if d.Message.RoutingKey != wantKey {
		t.Fatalf("announce key %q, want %q", d.Message.RoutingKey, wantKey)
	}
	var announced quietRouteResponse
	if err := json.Unmarshal(d.Message.Body, &announced); err != nil {
		t.Fatalf("announce body: %v", err)
	}
	if !announced.Rerouted || announced.Alternative == nil {
		t.Fatalf("announced suggestion lost the alternative: %+v", announced)
	}
}

func TestQuietRouteStaysQuietNoReroute(t *testing.T) {
	// A 60 dB corridor keeps the path forecast under the 65 dB
	// threshold: answer the scored default, no detour.
	env := newQuietRouteEnv(t)
	env.seedLoudCorridor(t, 60)
	from := env.grid.CellCenter(0, env.grid.Cols()/2)
	to := env.grid.CellCenter(env.grid.Rows()-1, env.grid.Cols()/2)
	resp, out := env.postQuietRoute(t, env.client.ID, from, to)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet-route = %d, want 200", resp.StatusCode)
	}
	if out.Rerouted || out.Alternative != nil {
		t.Fatalf("quiet city must not reroute: %+v", out)
	}
}

func TestQuietRouteRequiresAuthAndArea(t *testing.T) {
	env := newQuietRouteEnv(t)
	from := env.grid.CellCenter(0, 0)
	to := env.grid.CellCenter(1, 1)

	resp, _ := env.postQuietRoute(t, "", from, to)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no credential = %d, want 401", resp.StatusCode)
	}
	resp, _ = env.postQuietRoute(t, env.client.ID, from, geo.Point{Lat: 40.7, Lon: -74})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("outside area = %d, want 400", resp.StatusCode)
	}
}

func TestQuietRouteDisabledWithoutPredict(t *testing.T) {
	// A server without the forecasting subsystem answers 501, so
	// clients can tell "not enabled" from "no data".
	env := newUserAPIEnv(t)
	body, _ := json.Marshal(quietRouteRequest{
		From: geo.Point{Lat: 48.85, Lon: 2.35},
		To:   geo.Point{Lat: 48.86, Lon: 2.36},
	})
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+"/quiet-route", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", env.client.ID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("predict-less server = %d, want 501", resp.StatusCode)
	}
}
