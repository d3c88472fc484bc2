package soundcity

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

func journeyObs(t *testing.T, n int) []*sensing.Observation {
	t.Helper()
	start := geo.Point{Lat: 48.8566, Lon: 2.3522}
	begin := time.Date(2016, 4, 20, 18, 0, 0, 0, time.UTC)
	obs := make([]*sensing.Observation, 0, n)
	for i := 0; i < n; i++ {
		obs = append(obs, &sensing.Observation{
			UserID:             "anon-1",
			DeviceModel:        "ONEPLUS A0001",
			Mode:               sensing.Journey,
			SPL:                60 + float64(i),
			Loc:                &sensing.Location{Point: start.Offset(float64(i)*50, 0), AccuracyM: 8, Provider: sensing.ProviderGPS},
			Activity:           sensing.ActivityFoot,
			ActivityConfidence: 0.95,
			SensedAt:           begin.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	return obs
}

func TestBuildFromObservations(t *testing.T) {
	obs := journeyObs(t, 5)
	// Mix in non-journey and unlocalized observations: excluded.
	extra := journeyObs(t, 1)[0]
	extra.Mode = sensing.Opportunistic
	unloc := journeyObs(t, 1)[0]
	unloc.Loc = nil
	all := append(obs, extra, unloc)

	j, err := BuildFromObservations("anon-1", all, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Points) != 5 {
		t.Fatalf("journey has %d points, want 5", len(j.Points))
	}
	if !j.StartedAt.Equal(obs[0].SensedAt) || !j.EndedAt.Equal(obs[4].SensedAt) {
		t.Fatalf("journey span %v-%v", j.StartedAt, j.EndedAt)
	}
	if j.Visibility != Private {
		t.Fatal("journeys default to private")
	}
	// Length: 4 segments of 50 m.
	if l := j.Length(); l < 190 || l > 210 {
		t.Fatalf("length = %.1f, want ~200", l)
	}
	laeq, err := j.LAeq()
	if err != nil || laeq < 60 || laeq > 65 {
		t.Fatalf("LAeq = %.1f, %v", laeq, err)
	}
}

func TestBuildFromObservationsEmpty(t *testing.T) {
	if _, err := BuildFromObservations("anon-1", nil, time.Second); err == nil {
		t.Fatal("no journey points must fail")
	}
}

func TestJourneyValidate(t *testing.T) {
	j, err := BuildFromObservations("anon-1", journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	j.Visibility = Community
	if err := j.Validate(); err == nil {
		t.Fatal("community journey without community id must fail")
	}
	j.CommunityID = "les-voisins"
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	j.FrequencyS = 0
	if err := j.Validate(); err == nil {
		t.Fatal("zero frequency must fail")
	}
}

func journeyEnv(t *testing.T) (*goflow.Server, *mq.Broker, *docstore.Store, *JourneyStore) {
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
	js := NewJourneyStore(store, broker, geo.ParisZones())
	return server, broker, store, js
}

func TestJourneyStoreSaveAndVisibility(t *testing.T) {
	server, _, _, js := journeyEnv(t)
	walker, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	anonWalker := server.Accounts.Anonymize(walker.ID)

	private, err := BuildFromObservations(anonWalker, journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := js.Save(private, walker.ID); err != nil {
		t.Fatal(err)
	}
	public, err := BuildFromObservations(anonWalker, journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	public.Visibility = Public
	if _, err := js.Save(public, walker.ID); err != nil {
		t.Fatal(err)
	}
	community, err := BuildFromObservations(anonWalker, journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	community.Visibility = Community
	community.CommunityID = "quartier"
	if _, err := js.Save(community, walker.ID); err != nil {
		t.Fatal(err)
	}

	// The owner sees all three.
	own, err := js.Visible(anonWalker, nil)
	if err != nil || len(own) != 3 {
		t.Fatalf("owner sees %d, %v, want 3", len(own), err)
	}
	// A stranger sees only the public one.
	stranger, err := js.Visible("anon-stranger", nil)
	if err != nil || len(stranger) != 1 {
		t.Fatalf("stranger sees %d, %v, want 1", len(stranger), err)
	}
	// A community member sees public + community.
	member, err := js.Visible("anon-member", []string{"quartier"})
	if err != nil || len(member) != 2 {
		t.Fatalf("member sees %d, %v, want 2", len(member), err)
	}
}

func TestJourneyStoreAnnouncesSharedJourneys(t *testing.T) {
	server, broker, _, js := journeyEnv(t)
	walker, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	listener, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	zone := geo.ParisZones().ZoneID(geo.Point{Lat: 48.8566, Lon: 2.3522})
	if err := server.Channels.Subscribe(AppID, listener.ID, DatatypeJourney, zone); err != nil {
		t.Fatal(err)
	}
	j, err := BuildFromObservations(server.Accounts.Anonymize(walker.ID), journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	j.Visibility = Public
	if _, err := js.Save(j, walker.ID); err != nil {
		t.Fatal(err)
	}
	nextDelivery(t, broker, listener.Queue)
	// Private journeys are NOT announced.
	p, err := BuildFromObservations(server.Accounts.Anonymize(walker.ID), journeyObs(t, 3), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := js.Save(p, walker.ID); err != nil {
		t.Fatal(err)
	}
	if st, err := broker.QueueStats(listener.Queue); err != nil || st.Ready != 0 {
		t.Fatalf("private journey announced: %+v, %v", st, err)
	}
}

func TestFeedbackValidateAndRouting(t *testing.T) {
	server, broker, _, _ := journeyEnv(t)
	reporter, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	listener, err := server.Login(AppID)
	if err != nil {
		t.Fatal(err)
	}
	where := geo.Point{Lat: 48.8566, Lon: 2.3522}
	zones := geo.ParisZones()
	if err := server.Channels.Subscribe(AppID, listener.ID, DatatypeFeedback, zones.ZoneID(where)); err != nil {
		t.Fatal(err)
	}
	f := &Feedback{
		Reporter:  server.Accounts.Anonymize(reporter.ID),
		Where:     where,
		Annoyance: 8,
		Comment:   "jackhammer at dawn",
		At:        time.Date(2016, 4, 21, 7, 0, 0, 0, time.UTC),
	}
	if err := PublishFeedback(broker, zones, reporter.ID, f); err != nil {
		t.Fatal(err)
	}
	d := nextDelivery(t, broker, listener.Queue)
	got, err := decodeFeedback(d.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Annoyance != 8 || got.Comment != f.Comment {
		t.Fatalf("decoded feedback = %+v", got)
	}

	// Validation table.
	bad := *f
	bad.Annoyance = 11
	if err := bad.Validate(); err == nil {
		t.Fatal("annoyance > 10 must fail")
	}
	bad = *f
	bad.Reporter = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing reporter must fail")
	}
	bad = *f
	bad.At = time.Time{}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing timestamp must fail")
	}
	if _, err := decodeFeedback([]byte("{bad")); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestVisibilityString(t *testing.T) {
	if Private.String() != "private" || Community.String() != "community" || Public.String() != "public" {
		t.Fatal("visibility names wrong")
	}
}

// decodeFeedback parses a feedback payload from a broker delivery.
func decodeFeedback(body []byte) (*Feedback, error) {
	var f Feedback
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("decode feedback: %w", err)
	}
	return &f, nil
}
