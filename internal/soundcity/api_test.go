package soundcity

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

type userAPIEnv struct {
	server  *goflow.Server
	broker  *mq.Broker
	store   *docstore.Store
	handler http.Handler
	ts      *httptest.Server
	client  *goflow.Client
}

func newUserAPIEnv(t *testing.T) *userAPIEnv {
	t.Helper()
	broker := mq.NewBroker()
	store := docstore.NewStore()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
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
	return &userAPIEnv{server: server, broker: broker, store: store, handler: handler, ts: ts, client: client}
}

func (e *userAPIEnv) get(t *testing.T, path, credential string) (*http.Response, map[string]any) {
	t.Helper()
	resp, raw := e.getRaw(t, path, credential)
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, body
}

// getRaw is get for tests that hold a body to its bytes.
func (e *userAPIEnv) getRaw(t *testing.T, path, credential string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+path, nil)
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func (e *userAPIEnv) seedObservations(t *testing.T, n int) {
	t.Helper()
	base := time.Date(2016, 3, 10, 9, 0, 0, 0, time.UTC)
	obs := make([]*sensing.Observation, 0, n)
	for i := 0; i < n; i++ {
		o := &sensing.Observation{
			UserID:             "ignored", // replaced by anonymization on ingest
			DeviceModel:        "LGE NEXUS 5",
			Mode:               sensing.Opportunistic,
			SPL:                55 + float64(i%20),
			Activity:           sensing.ActivityStill,
			ActivityConfidence: 0.9,
			SensedAt:           base.Add(time.Duration(i) * time.Hour),
		}
		if i%2 == 0 {
			o.Loc = &sensing.Location{Point: geo.Point{Lat: 48.85, Lon: 2.35}, AccuracyM: 20, Provider: sensing.ProviderGPS}
		}
		obs = append(obs, o)
	}
	if _, err := e.server.BulkIngest(AppID, e.client.ID, obs); err != nil {
		t.Fatal(err)
	}
}

func TestUserAPIAuthentication(t *testing.T) {
	env := newUserAPIEnv(t)
	resp, _ := env.get(t, "/me/observations", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no credential = %d, want 401", resp.StatusCode)
	}
	resp, _ = env.get(t, "/me/observations", "bogus")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus credential = %d, want 401", resp.StatusCode)
	}
}

func TestUserAPIMyObservations(t *testing.T) {
	env := newUserAPIEnv(t)
	env.seedObservations(t, 6)
	// A second client contributes too; the first must not see it.
	other, err := env.server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.server.BulkIngest(AppID, other.ID, []*sensing.Observation{{
		UserID: "x", DeviceModel: "SONY D5803", Mode: sensing.Opportunistic,
		SPL: 70, Activity: sensing.ActivityStill, ActivityConfidence: 0.9,
		SensedAt: time.Date(2016, 3, 10, 9, 0, 0, 0, time.UTC),
	}}); err != nil {
		t.Fatal(err)
	}
	resp, body := env.get(t, "/me/observations", env.client.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if int(body["count"].(float64)) != 6 {
		t.Fatalf("count = %v, want 6 (own only)", body["count"])
	}
	// The body is written from rows, and is byte for byte what
	// encoding/json writes for the same documents held as maps.
	rows, err := env.server.Data.Retrieve(t.Context(), goflow.Query{
		AppID: AppID, UserID: env.server.Accounts.Anonymize(env.client.ID), Limit: 10000,
	})
	if err != nil || len(rows) != 6 {
		t.Fatalf("reference read: %d rows, %v", len(rows), err)
	}
	docs := make([]docstore.Doc, len(rows))
	for i, r := range rows {
		docs[i] = r.Doc(nil)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]any{"count": len(docs), "observations": docs}); err != nil {
		t.Fatal(err)
	}
	if _, raw := env.getRaw(t, "/me/observations", env.client.ID); !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("/me/observations:\n got %s\nwant %s", raw, want.Bytes())
	}
	// A user without contributions reads an empty list, not null.
	fresh, err := env.server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	if _, raw := env.getRaw(t, "/me/observations", fresh.ID); string(raw) != `{"count":0,"observations":[]}`+"\n" {
		t.Fatalf("/me/observations of a fresh user: %s", raw)
	}
}

func TestUserAPIMyExposure(t *testing.T) {
	env := newUserAPIEnv(t)
	env.seedObservations(t, 30)
	resp, body := env.get(t, "/me/exposure", env.client.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%v", resp.StatusCode, body)
	}
	daily, ok := body["daily"].([]any)
	if !ok || len(daily) == 0 {
		t.Fatalf("exposure daily = %v", body["daily"])
	}
	monthly, ok := body["monthly"].([]any)
	if !ok || len(monthly) == 0 {
		t.Fatalf("exposure monthly = %v", body["monthly"])
	}
	// The report is computed from observations rebuilt out of rows; over
	// this store it is, to the last digit, what it was computed from maps.
	const want = `"daily":[{"day":"2016-03-10","laeqDb":63.967786314423776,"peakDb":69,"band":2,"measurements":15},` +
		`{"day":"2016-03-11","laeqDb":67.99347206780674,"peakDb":74,"band":3,"measurements":15}],` +
		`"monthly":[{"month":"2016-03","laeqDb":66.43127825147403,"band":3,"days":2,"measurements":30}]}` + "\n"
	if _, raw := env.getRaw(t, "/me/exposure", env.client.ID); !bytes.HasSuffix(raw, []byte(want)) {
		t.Fatalf("exposure report:\n got %s\nwant ...%s", raw, want)
	}
	// A user without contributions gets 404.
	fresh, err := env.server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = env.get(t, "/me/exposure", fresh.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fresh user exposure = %d, want 404", resp.StatusCode)
	}
}

// TestUserAPIReadsFollowTheRequestContext: the two handlers that read a
// user's whole history stop with the request — a client that hung up,
// or a request the admission timeout already answered, must not go on
// to scan and copy thousands of documents nobody will read.
func TestUserAPIReadsFollowTheRequestContext(t *testing.T) {
	env := newUserAPIEnv(t)
	env.seedObservations(t, 30)
	reg := obs.NewRegistry()
	env.store.Instrument(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{"/me/observations", "/me/exposure"} {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		req.Header.Set("X-Client-ID", env.client.ID)
		rec := httptest.NewRecorder()
		env.handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Errorf("%s under a cancelled request = %d %s, want 500 naming the cancellation", path, rec.Code, rec.Body)
		}
	}
	if n := storeQueries(reg); n != 0 {
		t.Errorf("cancelled requests still ran %d store scans", n)
	}
	// The same requests, alive, are served.
	for _, path := range []string{"/me/observations", "/me/exposure"} {
		if resp, _ := env.get(t, path, env.client.ID); resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	if storeQueries(reg) == 0 {
		t.Error("live requests ran no store scan: the count this test reads is not wired")
	}
}

func TestUserAPIFeedbackRouting(t *testing.T) {
	env := newUserAPIEnv(t)
	// A neighbour subscribes to feedback in the zone.
	neighbour, err := env.server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	where := geo.Point{Lat: 48.8566, Lon: 2.3522}
	zone := geo.ParisZones().ZoneID(where)
	if err := env.server.Channels.Subscribe(AppID, neighbour.ID, DatatypeFeedback, zone); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(feedbackRequest{Where: where, Annoyance: 7, Comment: "sirens"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+"/feedback", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", env.client.ID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	d := nextDelivery(t, env.broker, neighbour.Queue)
	f, err := decodeFeedback(d.Body)
	if err != nil {
		t.Fatal(err)
	}
	if f.Annoyance != 7 || f.Reporter != env.server.Accounts.Anonymize(env.client.ID) {
		t.Fatalf("routed feedback = %+v", f)
	}
	// Invalid annoyance rejected.
	bad, err := json.Marshal(feedbackRequest{Where: where, Annoyance: 99})
	if err != nil {
		t.Fatal(err)
	}
	req2, err := http.NewRequest(http.MethodPost, env.ts.URL+"/feedback", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("X-Client-ID", env.client.ID)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid feedback = %d, want 400", resp2.StatusCode)
	}
}

func TestUserAPIMyJourneys(t *testing.T) {
	env := newUserAPIEnv(t)
	store := NewJourneyStore(env.store, env.broker, geo.ParisZones())
	j, err := BuildFromObservations(env.server.Accounts.Anonymize(env.client.ID), journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// journeyObs hard-codes owner "anon-1"; rebuild with the real
	// anon id.
	j.Owner = env.server.Accounts.Anonymize(env.client.ID)
	if _, err := store.Save(j, env.client.ID); err != nil {
		t.Fatal(err)
	}
	resp, body := env.get(t, "/me/journeys", env.client.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if int(body["count"].(float64)) != 1 {
		t.Fatalf("journeys = %v", body["count"])
	}
}

func TestObservationFromRowRoundTrip(t *testing.T) {
	env := newUserAPIEnv(t)
	env.seedObservations(t, 4)
	rows, err := env.server.Data.Retrieve(t.Context(), goflow.Query{AppID: AppID})
	if err != nil || len(rows) != 4 {
		t.Fatalf("retrieve: %d, %v", len(rows), err)
	}
	// Localized and unlocalized observations are stored under two
	// shapes; the rebuilt ones are the seeded ones under either.
	base := time.Date(2016, 3, 10, 9, 0, 0, 0, time.UTC)
	for i, r := range rows {
		o, err := goflow.ObservationFromRow(r)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if o.UserID != env.server.Accounts.Anonymize(env.client.ID) || o.DeviceModel != "LGE NEXUS 5" ||
			o.Mode != sensing.Opportunistic || o.SPL != 55+float64(i) || o.Activity != sensing.ActivityStill ||
			o.ActivityConfidence != 0.9 || !o.SensedAt.Equal(base.Add(time.Duration(i)*time.Hour)) {
			t.Fatalf("row %d rebuilt as %+v", i, o)
		}
		if o.Localized() != (i%2 == 0) {
			t.Fatalf("row %d: localized = %v", i, o.Localized())
		}
		if o.Loc != nil && (*o.Loc != sensing.Location{Point: geo.Point{Lat: 48.85, Lon: 2.35}, AccuracyM: 20, Provider: sensing.ProviderGPS}) {
			t.Fatalf("row %d: location = %+v", i, *o.Loc)
		}
	}
	// Corrupt documents are rejected, not panicking.
	scratch := docstore.NewStore().Collection("scratch")
	if _, err := scratch.Insert(docstore.Doc{"userId": "u"}); err != nil {
		t.Fatal(err)
	}
	corrupt, err := scratch.FindRowsContext(t.Context(), nil, docstore.FindOptions{})
	if err != nil || len(corrupt) != 1 {
		t.Fatalf("scratch read: %d, %v", len(corrupt), err)
	}
	if _, err := goflow.ObservationFromRow(corrupt[0]); err == nil {
		t.Fatal("incomplete document must fail")
	}
}
