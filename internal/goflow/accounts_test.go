package goflow

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

func newAccounts(t *testing.T) *Accounts {
	t.Helper()
	a, err := NewAccounts()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRegisterAppAndDuplicate(t *testing.T) {
	a := newAccounts(t)
	app, err := a.RegisterApp("SC", "SoundCity", DataPolicy{SharedFields: []string{"spl"}})
	if err != nil {
		t.Fatal(err)
	}
	if app.Secret == "" {
		t.Fatal("app must get a secret")
	}
	if _, err := a.RegisterApp("SC", "again", DataPolicy{}); !errors.Is(err, ErrAppExists) {
		t.Fatalf("duplicate register = %v, want ErrAppExists", err)
	}
	if _, err := a.RegisterApp("", "noname", DataPolicy{}); err == nil {
		t.Fatal("empty app id must fail")
	}
	got, err := a.App("SC")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "SoundCity" || len(got.Policy.SharedFields) != 1 {
		t.Fatalf("App() = %+v", got)
	}
	if _, err := a.App("nope"); !errors.Is(err, ErrAppNotFound) {
		t.Fatalf("missing app = %v", err)
	}
}

func TestRegisterClient(t *testing.T) {
	a := newAccounts(t)
	if _, err := a.RegisterClient("SC", RoleClient); !errors.Is(err, ErrAppNotFound) {
		t.Fatalf("client for missing app = %v", err)
	}
	if _, err := a.RegisterApp("SC", "SoundCity", DataPolicy{}); err != nil {
		t.Fatal(err)
	}
	c, err := a.RegisterClient("SC", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == "" || c.AnonID == "" || c.AppID != "SC" {
		t.Fatalf("client = %+v", c)
	}
	got, err := a.Client(c.ID)
	if err != nil || got.AnonID != c.AnonID {
		t.Fatalf("Client() = %+v, %v", got, err)
	}
	if err := a.RemoveClient(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Client(c.ID); !errors.Is(err, ErrClientNotFound) {
		t.Fatalf("removed client lookup = %v", err)
	}
	if err := a.RemoveClient(c.ID); !errors.Is(err, ErrClientNotFound) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestAnonymizeStableOneWayDistinct(t *testing.T) {
	a := newAccounts(t)
	id1 := a.Anonymize("client-1")
	id2 := a.Anonymize("client-1")
	id3 := a.Anonymize("client-2")
	if id1 != id2 {
		t.Fatal("anonymization must be stable per client")
	}
	if id1 == id3 {
		t.Fatal("different clients must get different anon ids")
	}
	if !strings.HasPrefix(id1, "anon-") {
		t.Fatalf("anon id %q lacks prefix", id1)
	}
	if strings.Contains(id1, "client-1") {
		t.Fatal("anon id must not leak the client id")
	}
	// A fresh account manager (fresh key) maps the same client
	// differently — the mapping is keyed, not a plain hash.
	b := newAccounts(t)
	if b.Anonymize("client-1") == id1 {
		t.Fatal("anonymization must depend on the instance key")
	}
}

func TestAuthenticateApp(t *testing.T) {
	a := newAccounts(t)
	app, err := a.RegisterApp("SC", "SoundCity", DataPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AuthenticateApp("SC", app.Secret); err != nil {
		t.Fatalf("valid auth failed: %v", err)
	}
	if err := a.AuthenticateApp("SC", "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("wrong secret = %v", err)
	}
	if err := a.AuthenticateApp("nope", app.Secret); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("missing app = %v", err)
	}
}

func TestAppsSorted(t *testing.T) {
	a := newAccounts(t)
	for _, id := range []string{"zz", "aa", "mm"} {
		if _, err := a.RegisterApp(id, id, DataPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	got := a.appIDs()
	if len(got) != 3 || got[0] != "aa" || got[2] != "zz" {
		t.Fatalf("appIDs() = %v", got)
	}
}

func TestRoleString(t *testing.T) {
	if RoleClient.String() != "client" || RoleManager.String() != "manager" || RoleAdmin.String() != "admin" {
		t.Fatal("role names wrong")
	}
}

// appIDs returns all registered app ids sorted.
func (a *Accounts) appIDs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	ids := make([]string, 0, len(a.apps))
	for id := range a.apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
