package goflow

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

func newAPI(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	server, _ := newTestServer(t)
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(ts.Close)
	return server, ts
}

func doJSON(t *testing.T, method, url string, body any, headers ...string) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func TestRESTHealth(t *testing.T) {
	_, ts := newAPI(t)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, body)
	}
}

func TestRESTRegisterAppAndConflict(t *testing.T) {
	_, ts := newAPI(t)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/apps", registerAppRequest{ID: "SC", Name: "SoundCity"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d %v", resp.StatusCode, body)
	}
	if body["secret"] == "" {
		t.Fatal("register must return the secret")
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps", registerAppRequest{ID: "SC"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", resp.StatusCode)
	}
	// Malformed body.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/apps", bytes.NewBufferString("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Body.Close() }()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", raw.StatusCode)
	}
}

func TestRESTLoginSubscribeAndErrors(t *testing.T) {
	_, ts := newAPI(t)
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/login", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("login to missing app = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/apps", registerAppRequest{ID: "SC"}); resp.StatusCode != http.StatusCreated {
		t.Fatal("register failed")
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/login", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login = %d %v", resp.StatusCode, body)
	}
	clientID, ok := body["id"].(string)
	if !ok || clientID == "" {
		t.Fatalf("login body = %v", body)
	}
	if body["exchange"] != "E."+clientID || body["queue"] != "Q."+clientID {
		t.Fatalf("endpoints = %v", body)
	}
	// Subscribe.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/subscriptions",
		subscribeRequest{ClientID: clientID, Datatype: "feedback", Zone: "FR75013"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	// Missing fields.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/subscriptions", subscribeRequest{ClientID: clientID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incomplete subscribe = %d, want 400", resp.StatusCode)
	}
	// Unknown client.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/subscriptions",
		subscribeRequest{ClientID: "ghost", Datatype: "feedback", Zone: "FR75013"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown client subscribe = %d, want 404", resp.StatusCode)
	}
}

func TestRESTObservationsQuery(t *testing.T) {
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{SharedFields: []string{"spl"}}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		o := obsAt(t, "LGE NEXUS 5", 40+float64(i)*5, i%2 == 0, base.Add(time.Duration(i)*time.Hour))
		if _, err := server.Data.Ingest("SC", "c1", o, o.SensedAt); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?localized=true", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observations = %d", resp.StatusCode)
	}
	if int(body["count"].(float64)) != 3 {
		t.Fatalf("localized count = %v, want 3", body["count"])
	}
	// Time filter.
	from := base.Add(90 * time.Minute).Format(time.RFC3339)
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?from="+from, nil)
	if int(body["count"].(float64)) != 3 {
		t.Fatalf("from-filtered count = %v, want 3", body["count"])
	}
	// Count endpoint.
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations/count?model=LGE+NEXUS+5", nil)
	if int(body["count"].(float64)) != 5 {
		t.Fatalf("count = %v", body["count"])
	}
	// Foreign requester gets the policy-projected view.
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?requester=OTHER", nil)
	observations, ok := body["observations"].([]any)
	if !ok || len(observations) != 5 {
		t.Fatalf("foreign observations = %v", body["observations"])
	}
	first, ok := observations[0].(map[string]any)
	if !ok {
		t.Fatal("bad observation shape")
	}
	if _, has := first["deviceModel"]; has {
		t.Fatal("foreign view must hide unshared fields")
	}
	if _, has := first["spl"]; !has {
		t.Fatal("foreign view must include shared fields")
	}
	// Limit + skip.
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/observations?limit=2&skip=4", nil)
	if int(body["count"].(float64)) != 1 {
		t.Fatalf("paged count = %v, want 1", body["count"])
	}
}

func TestRESTAnalyticsAndJobs(t *testing.T) {
	server, ts := newAPI(t)
	app, err := server.RegisterApp("SC", "SoundCity", DataPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if _, err := server.BulkIngest("SC", "c1", []*sensing.Observation{obsAt(t, "A", 50, true, at)}); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/apps/SC/analytics", nil)
	if resp.StatusCode != http.StatusOK || int(body["ingested"].(float64)) != 1 {
		t.Fatalf("analytics = %d %v", resp.StatusCode, body)
	}
	// Unknown app analytics returns the zero record, not an error.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/apps/GHOST/analytics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ghost analytics = %d", resp.StatusCode)
	}
	// Jobs are a manager capability: no secret, no job.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/jobs", submitJobRequest{Name: "count-observations"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated job submit = %d, want 401", resp.StatusCode)
	}
	// Submit a job with the app secret and poll it.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/jobs",
		submitJobRequest{Name: "count-observations"}, "X-App-Secret", app.Secret)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit job = %d %v", resp.StatusCode, body)
	}
	jobID, ok := body["jobId"].(string)
	if !ok {
		t.Fatalf("job body = %v", body)
	}
	server.Jobs.Wait()
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil)
	if resp.StatusCode != http.StatusOK || int(body["state"].(float64)) != int(JobDone) {
		t.Fatalf("job status = %d %v", resp.StatusCode, body)
	}
	// Unknown job.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	// Unknown job name.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/jobs",
		submitJobRequest{Name: "nope"}, "X-App-Secret", app.Secret)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown job name = %d, want 400", resp.StatusCode)
	}
}

// TestRESTNotLeaderMapping: writes routed to a node that cannot take
// them — an unpromoted follower or a fenced ex-leader — surface as 503
// with a Retry-After and, when the node knows who leads, an
// X-Leader-Hint for redirect-following clients. The condition is
// transient by design (failover elects a successor within a few lease
// TTLs), so it must never map to a 500.
func TestRESTNotLeaderMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantHint   string
		wantRetry  bool
	}{
		{
			name:       "follower with leader hint",
			err:        &cluster.NotLeaderError{Leader: "n2", Addr: "10.0.0.2:7600"},
			wantStatus: http.StatusServiceUnavailable,
			wantHint:   "10.0.0.2:7600",
			wantRetry:  true,
		},
		{
			name:       "follower with name-only hint",
			err:        &cluster.NotLeaderError{Leader: "n2"},
			wantStatus: http.StatusServiceUnavailable,
			wantHint:   "n2",
			wantRetry:  true,
		},
		{
			name:       "fenced ex-leader (stale term)",
			err:        &cluster.NotLeaderError{Leader: "n3", Addr: "10.0.0.3:7600", Err: cluster.ErrStaleTerm},
			wantStatus: http.StatusServiceUnavailable,
			wantHint:   "10.0.0.3:7600",
			wantRetry:  true,
		},
		{
			name:       "bare ErrNotLeader without hint",
			err:        cluster.ErrNotLeader,
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
		},
		{
			name:       "wrapped in ingest context",
			err:        fmt.Errorf("insert %q: commit log: %w", "obs", &cluster.NotLeaderError{Addr: "10.0.0.4:7600", Err: cluster.ErrStaleTerm}),
			wantStatus: http.StatusServiceUnavailable,
			wantHint:   "10.0.0.4:7600",
			wantRetry:  true,
		},
		{
			name:       "unrelated error stays 500",
			err:        errors.New("disk on fire"),
			wantStatus: http.StatusInternalServerError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeErr(rec, tc.err)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if got := rec.Header().Get("X-Leader-Hint"); got != tc.wantHint {
				t.Fatalf("X-Leader-Hint = %q, want %q", got, tc.wantHint)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.wantRetry {
				t.Fatalf("Retry-After present = %v, want %v", got, tc.wantRetry)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
				t.Fatalf("error body = %q (%v)", rec.Body.String(), err)
			}
		})
	}
}

// fencedEngine refuses writes the way a deposed cluster leader does,
// so the bulk-ingest route can be tested end to end without a group.
type fencedEngine struct{ storage.Engine }

func (fencedEngine) Insert(string, storage.Doc) (string, error) {
	return "", &cluster.NotLeaderError{Leader: "n2", Addr: "10.0.0.2:7600", Err: cluster.ErrStaleTerm}
}

func (fencedEngine) InsertMany(string, []storage.Doc) ([]string, error) {
	return nil, &cluster.NotLeaderError{Leader: "n2", Addr: "10.0.0.2:7600", Err: cluster.ErrStaleTerm}
}

// The bulk-ingest route has its own error path (it reports the stored
// prefix alongside the error), so the not-leader mapping must hold
// there too — not just in writeErr.
func TestRESTBulkIngestNotLeader(t *testing.T) {
	broker := mq.NewBroker()
	t.Cleanup(broker.Close)
	server, err := NewServer(ServerConfig{Broker: broker, Data: fencedEngine{storage.NewLocal(docstore.NewStore())}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewInstrumentedHTTPHandler(server, obs.NewRegistry()))
	t.Cleanup(ts.Close)

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/apps/SC/observations", map[string]any{
		"clientId": "c1",
		"observations": []map[string]any{
			{"userId": "u1", "spl": 61.5, "sensedAt": time.Now().UTC().Format(time.RFC3339)},
		},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %v)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Leader-Hint"); got != "10.0.0.2:7600" {
		t.Fatalf("X-Leader-Hint = %q", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	if stored, ok := body["stored"].(float64); !ok || stored != 0 {
		t.Fatalf("stored = %v, want 0", body["stored"])
	}
}
