package goflow

import (
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

func newTestServer(t *testing.T) (*Server, *mq.Broker) {
	t.Helper()
	broker := mq.NewBroker()
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	return server, broker
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Data: storage.NewLocal(docstore.NewStore())}); err == nil {
		t.Fatal("server without broker must fail")
	}
	if _, err := NewServer(ServerConfig{Broker: mq.NewBroker()}); err == nil {
		t.Fatal("server without store must fail")
	}
}

func TestServerBrokerPathIngest(t *testing.T) {
	server, broker := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil { // idempotent
		t.Fatal(err)
	}
	obs := obsAt(t, "LGE NEXUS 5", 63, true, time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC))
	body, err := obs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "obs", "FR75013")
	if _, err := broker.PublishAt(cl.Exchange, key, nil, body, obs.SensedAt.Add(4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rows, err := server.Data.Retrieve(t.Context(), Query{AppID: "SC"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("stored %d docs, %v", len(rows), err)
	}
	if rows[0].Value("userId") != server.Accounts.Anonymize(cl.ID) {
		t.Fatal("broker-path ingest must anonymize")
	}
	// ReceivedAt follows the broker publish timestamp (virtual time).
	received, ok := rows[0].Value("receivedAt").(time.Time)
	if !ok || !received.Equal(obs.SensedAt.Add(4*time.Second)) {
		t.Fatalf("receivedAt = %v", rows[0].Value("receivedAt"))
	}
	if st := server.Analytics.Summary(); st.Ingested != 1 {
		t.Fatalf("analytics ingested = %d", st.Ingested)
	}
}

func TestServerRejectsMalformedMessages(t *testing.T) {
	server, broker := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "obs", "ZZ")
	if _, err := broker.PublishAt(cl.Exchange, key, nil, []byte("{broken"), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := server.Analytics.Summary(); st.Rejected != 1 || st.Ingested != 0 {
		t.Fatalf("summary = %+v", st)
	}
}

func TestServerIgnoresNonObservationDatatypes(t *testing.T) {
	server, broker := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	key := routingKey("SC", cl.ID, "feedback", "FR75013")
	if _, err := broker.PublishAt(cl.Exchange, key, nil, []byte(`{"annoyance":7}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := server.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n, err := server.Data.Count(t.Context(), Query{AppID: "SC"})
	if err != nil || n != 0 {
		t.Fatalf("feedback stored as observation: %d", n)
	}
	if st := server.Analytics.Summary(); st.Rejected != 0 {
		t.Fatal("feedback must not count as a rejection")
	}
}

func TestServerBulkIngest(t *testing.T) {
	server, _ := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2016, 1, 5, 8, 0, 0, 0, time.UTC)
	batch := []*sensing.Observation{
		obsAt(t, "A", 40, true, at),
		obsAt(t, "A", 50, false, at.Add(time.Minute)),
	}
	n, err := server.BulkIngest("SC", "loader", batch)
	if err != nil || n != 2 {
		t.Fatalf("BulkIngest = %d, %v", n, err)
	}
	// Invalid observation aborts with partial count.
	bad := obsAt(t, "A", 40, false, at)
	bad.UserID = ""
	n, err = server.BulkIngest("SC", "loader", []*sensing.Observation{obsAt(t, "A", 41, false, at), bad})
	if err == nil || n != 1 {
		t.Fatalf("partial bulk = %d, %v", n, err)
	}
}

func TestServerLoginLogout(t *testing.T) {
	server, broker := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Exchange == "" || cl.Queue == "" {
		t.Fatalf("login must provision endpoints: %+v", cl)
	}
	stored, err := server.Accounts.Client(cl.ID)
	if err != nil || stored.Exchange != cl.Exchange {
		t.Fatalf("client record = %+v, %v", stored, err)
	}
	if err := server.Logout(cl.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.QueueStats(cl.Queue); err == nil {
		t.Fatal("logout must remove the client queue")
	}
	if _, err := server.Login("GHOSTAPP"); err == nil {
		t.Fatal("login to unknown app must fail")
	}
}

func TestServerShutdownStopsIngest(t *testing.T) {
	server, broker := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := server.StartIngest(); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	// Messages published after shutdown stay queued.
	cl, err := server.Login("SC")
	if err != nil {
		t.Fatal(err)
	}
	obs := obsAt(t, "A", 50, false, time.Now())
	body, err := obs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.PublishAt(cl.Exchange, routingKey("SC", cl.ID, "obs", "ZZ"), nil, body, time.Now()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	st, err := broker.QueueStats(GoFlowQueue)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 1 {
		t.Fatalf("GF ready = %d after shutdown, want 1 (not consumed)", st.Ready)
	}
}

// TestIngestAnonymizesOnce: each ingest path resolves the contributor's
// anonymous id once and hands the same id to the stored document and to
// the analytics, and the broker path allocates no more than that one
// resolution costs.
func TestIngestAnonymizesOnce(t *testing.T) {
	server, _ := newTestServer(t)
	if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	obs := obsAt(t, "LGE NEXUS 5", 63, true, at)
	body, err := obs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	delivery := mq.Message{RoutingKey: routingKey("SC", "broker-client", "obs", "FR75013"), Body: body, PublishedAt: at}
	if err := server.ingestDelivery(delivery); err != nil {
		t.Fatal(err)
	}
	if _, err := server.BulkIngest("SC", "bulk-client", []*sensing.Observation{obsAt(t, "A", 50, false, at)}); err != nil {
		t.Fatal(err)
	}
	st, ok := server.Analytics.ForApp("SC")
	if !ok || len(st.ByClient) != 2 {
		t.Fatalf("analytics contributors = %v", st.ByClient)
	}
	for _, model := range []string{"LGE NEXUS 5", "A"} {
		rows, err := server.Data.Retrieve(t.Context(), Query{AppID: "SC", DeviceModel: model})
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: stored %d docs, %v", model, len(rows), err)
		}
		if user, _ := rows[0].Value("userId").(string); st.ByClient[user] != 1 {
			t.Fatalf("%s: stored contributor %q is not the analytics contributor (%v)", model, user, st.ByClient)
		}
	}
	if testing.Short() || raceDetector {
		return // the race detector changes allocation counts
	}
	// One HMAC-SHA-256 with its hex id costs ten allocations. Resolving
	// it twice, the broker path allocated 63 times per delivery; once,
	// 53; with the strings of the stored document coded as well, 48.
	allocs := testing.AllocsPerRun(200, func() {
		if err := server.ingestDelivery(delivery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a broker delivery allocates %.1f times", allocs)
	if allocs > 55 {
		t.Errorf("a broker delivery allocates %.1f times, want at most 55", allocs)
	}
}
