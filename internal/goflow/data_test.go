package goflow

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
)

func newDataManager(t *testing.T) (*DataManager, *Accounts) {
	t.Helper()
	accounts := newAccounts(t)
	dm := NewDataManager(docstore.NewStore(), accounts, geo.ParisZones())
	return dm, accounts
}

func obsAt(t *testing.T, model string, spl float64, localized bool, at time.Time) *sensing.Observation {
	t.Helper()
	o := &sensing.Observation{
		UserID:             "u1",
		DeviceModel:        model,
		AppVersion:         "1.3",
		Mode:               sensing.Opportunistic,
		SPL:                spl,
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           at,
	}
	if localized {
		o.Loc = &sensing.Location{
			Point:     geo.Point{Lat: 48.8566, Lon: 2.3522},
			AccuracyM: 30,
			Provider:  sensing.ProviderNetwork,
		}
	}
	return o
}

func TestIngestStoresAnonymizedDoc(t *testing.T) {
	dm, accounts := newDataManager(t)
	at := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	id, err := dm.Ingest("SC", "client-1", obsAt(t, "LGE NEXUS 5", 61, true, at), at)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("ingest must return a doc id")
	}
	rows, err := dm.Retrieve(t.Context(), Query{AppID: "SC"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("retrieve: %d rows, %v", len(rows), err)
	}
	d := rows[0]
	if d.Value("userId") != accounts.Anonymize("client-1") {
		t.Fatal("stored user id must be the anonymized id")
	}
	if d.Value("zone") == nil || d.Value("provider") != "network" || d.Value("localized") != true {
		t.Fatalf("stored doc incomplete: %v", d.Doc(nil))
	}
}

func TestIngestRejectsInvalid(t *testing.T) {
	dm, _ := newDataManager(t)
	bad := obsAt(t, "M", 61, false, time.Now())
	bad.SPL = 999
	if _, err := dm.Ingest("SC", "c", bad, time.Now()); err == nil {
		t.Fatal("invalid observation must be rejected")
	}
	if _, err := dm.Ingest("SC", "c", nil, time.Now()); err == nil {
		t.Fatal("nil observation must be rejected")
	}
}

func TestRetrieveFilters(t *testing.T) {
	dm, _ := newDataManager(t)
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	seed := []*sensing.Observation{
		obsAt(t, "A", 30, true, base),
		obsAt(t, "A", 60, false, base.Add(time.Hour)),
		obsAt(t, "B", 45, true, base.Add(2*time.Hour)),
	}
	for _, o := range seed {
		if _, err := dm.Ingest("SC", "c1", o, o.SensedAt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dm.Ingest("OTHER", "c2", obsAt(t, "A", 80, true, base), base); err != nil {
		t.Fatal(err)
	}

	loc := true
	from := base.Add(30 * time.Minute)
	minSPL := 40.0
	tests := []struct {
		name string
		q    Query
		want int
	}{
		{"by app", Query{AppID: "SC"}, 3},
		{"by model", Query{AppID: "SC", DeviceModel: "A"}, 2},
		{"by localized", Query{AppID: "SC", Localized: &loc}, 2},
		{"by provider", Query{AppID: "SC", Provider: "network"}, 2},
		{"by time", Query{AppID: "SC", From: &from}, 2},
		{"by spl", Query{AppID: "SC", MinSPL: &minSPL}, 2},
		{"combined", Query{AppID: "SC", DeviceModel: "A", Localized: &loc}, 1},
		{"limit", Query{AppID: "SC", Limit: 2}, 2},
		{"skip", Query{AppID: "SC", Skip: 2}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rows, err := dm.Retrieve(t.Context(), tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != tt.want {
				t.Fatalf("got %d rows, want %d", len(rows), tt.want)
			}
		})
	}
	n, err := dm.Count(t.Context(), Query{AppID: "SC"})
	if err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestRetrieveSortedBySensedAt(t *testing.T) {
	dm, _ := newDataManager(t)
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	// Insert out of order.
	for _, offset := range []time.Duration{2 * time.Hour, 0, time.Hour} {
		o := obsAt(t, "A", 50, false, base.Add(offset))
		if _, err := dm.Ingest("SC", "c", o, o.SensedAt); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := dm.Retrieve(t.Context(), Query{AppID: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		prev, ok1 := rows[i-1].Value("sensedAt").(time.Time)
		cur, ok2 := rows[i].Value("sensedAt").(time.Time)
		if !ok1 || !ok2 || cur.Before(prev) {
			t.Fatal("results must be sorted by sensing time")
		}
	}
}

func TestRetrieveSharedAppliesPolicy(t *testing.T) {
	dm, accounts := newDataManager(t)
	if _, err := accounts.RegisterApp("SC", "SoundCity", DataPolicy{
		SharedFields: []string{"spl", "zone", "userId"}, // userId must be ignored
	}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	if _, err := dm.Ingest("SC", "c1", obsAt(t, "A", 61, true, at), at); err != nil {
		t.Fatal(err)
	}
	rows, err := dm.Retrieve(t.Context(), Query{AppID: "SC"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("retrieve: %d, %v", len(rows), err)
	}
	// visibleTo is the document requester receives: the row written out
	// under the predicate Visible gives for it.
	visibleTo := func(requester string) map[string]any {
		t.Helper()
		keep, err := dm.Visible("SC", requester)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := rows[0].AppendJSON(nil, keep)
		if err != nil {
			t.Fatal(err)
		}
		var d map[string]any
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// The owner sees everything.
	if visibleTo("SC")["deviceModel"] != "A" {
		t.Fatal("owner must see full documents")
	}
	// A foreign app sees only the shared fields, never the user.
	d := visibleTo("OTHER")
	if len(d) != 2 || d["spl"] != 61.0 || d["zone"] == nil {
		t.Fatalf("shared fields missing: %v", d)
	}
	if _, has := d["deviceModel"]; has {
		t.Fatal("unshared field leaked")
	}
	if _, has := d["userId"]; has {
		t.Fatal("user id must never be shared")
	}
}

func TestDeleteUserData(t *testing.T) {
	dm, accounts := newDataManager(t)
	at := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := dm.Ingest("SC", "c1", obsAt(t, "A", 50, false, at), at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dm.Ingest("SC", "c2", obsAt(t, "A", 50, false, at), at); err != nil {
		t.Fatal(err)
	}
	n, err := dm.DeleteUserData(accounts.Anonymize("c1"))
	if err != nil || n != 3 {
		t.Fatalf("DeleteUserData = %d, %v, want 3", n, err)
	}
	total, err := dm.Count(t.Context(), Query{AppID: "SC"})
	if err != nil || total != 1 {
		t.Fatalf("remaining = %d, %v", total, err)
	}
}
