// Package goflow implements the GoFlow crowd-sensing middleware
// server of Section 3: account and access management, channel
// management over the message broker, crowd-sensed data management
// and storage on the document store, background jobs, analytics, and
// a REST API (rest.go). Privacy follows the CNIL-style policy of the
// paper: contributions are stored under anonymized user ids and apps
// declare which fields they share as open data.
package goflow

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Role grants capabilities on an app's data.
type Role int

// Roles.
const (
	// RoleClient may publish observations and subscribe.
	RoleClient Role = iota + 1
	// RoleManager may run background jobs and read analytics.
	RoleManager
	// RoleAdmin may manage accounts.
	RoleAdmin
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleManager:
		return "manager"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Errors callers can match.
var (
	ErrAppExists      = errors.New("goflow: app already registered")
	ErrAppNotFound    = errors.New("goflow: app not found")
	ErrBadCredentials = errors.New("goflow: bad credentials")
	ErrClientNotFound = errors.New("goflow: client not found")
)

// DataPolicy is an app's open-data declaration: the observation
// fields it shares with other applications. Everything else is
// private to the contributing app.
type DataPolicy struct {
	// SharedFields of stored observation documents (e.g. "spl",
	// "zone", "sensedAt"). The anonymized user id is never shared.
	SharedFields []string `json:"sharedFields"`
}

// Shares reports whether the policy shares a field of an observation
// document with other applications; user ids are never shared.
func (p DataPolicy) Shares(field string) bool {
	return field != "userId" && slices.Contains(p.SharedFields, field)
}

// App is a registered crowd-sensing application.
type App struct {
	ID        string     `json:"id"`
	Name      string     `json:"name"`
	Secret    string     `json:"-"`
	Policy    DataPolicy `json:"policy"`
	CreatedAt time.Time  `json:"createdAt"`
}

// Client is a registered mobile (or web) client of an app.
type Client struct {
	// ID is the shared secret between client and server, used as a
	// binding filter on the client's exchange.
	ID string `json:"id"`
	// AnonID is the anonymized contributor id under which the
	// client's observations are stored.
	AnonID    string    `json:"anonId"`
	AppID     string    `json:"appId"`
	Role      Role      `json:"role"`
	CreatedAt time.Time `json:"createdAt"`
	// Exchange / Queue are the broker endpoints provisioned for the
	// client by channel management.
	Exchange string `json:"exchange"`
	Queue    string `json:"queue"`
}

// Accounts manages apps and clients.
type Accounts struct {
	// anonKey keys the HMAC that derives stable anonymous ids from
	// client ids, so the same contributor always maps to the same
	// anonymized id while the mapping stays one-way.
	anonKey []byte

	mu      sync.RWMutex
	apps    map[string]*App
	clients map[string]*Client
}

// NewAccounts builds an account manager with a fresh anonymization
// key.
func NewAccounts() (*Accounts, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("anonymization key: %w", err)
	}
	return &Accounts{
		anonKey: key,
		apps:    make(map[string]*App),
		clients: make(map[string]*Client),
	}, nil
}

// RegisterApp creates an app with the given policy; the returned App
// carries the generated secret.
func (a *Accounts) RegisterApp(id, name string, policy DataPolicy) (*App, error) {
	if id == "" {
		return nil, errors.New("goflow: app id must not be empty")
	}
	secret, err := randomToken()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, exists := a.apps[id]; exists {
		return nil, fmt.Errorf("register app %q: %w", id, ErrAppExists)
	}
	app := &App{
		ID:        id,
		Name:      name,
		Secret:    secret,
		Policy:    policy,
		CreatedAt: time.Now(),
	}
	a.apps[id] = app
	cp := *app
	return &cp, nil
}

// App returns a copy of the registered app.
func (a *Accounts) App(id string) (*App, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	app, ok := a.apps[id]
	if !ok {
		return nil, fmt.Errorf("app %q: %w", id, ErrAppNotFound)
	}
	cp := *app
	return &cp, nil
}

// RegisterClient creates a client account for an app and derives its
// anonymized id.
func (a *Accounts) RegisterClient(appID string, role Role) (*Client, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.apps[appID]; !ok {
		return nil, fmt.Errorf("register client for %q: %w", appID, ErrAppNotFound)
	}
	id, err := randomToken()
	if err != nil {
		return nil, err
	}
	c := &Client{
		ID:        id,
		AnonID:    a.anonymizeLocked(id),
		AppID:     appID,
		Role:      role,
		CreatedAt: time.Now(),
	}
	a.clients[id] = c
	cp := *c
	return &cp, nil
}

// Client resolves a client id.
func (a *Accounts) Client(id string) (*Client, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.clients[id]
	if !ok {
		return nil, fmt.Errorf("client: %w", ErrClientNotFound)
	}
	cp := *c
	return &cp, nil
}

// setClientChannels records the broker endpoints provisioned for a
// client.
func (a *Accounts) setClientChannels(id, exchange, queue string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.clients[id]
	if !ok {
		return fmt.Errorf("client channels: %w", ErrClientNotFound)
	}
	c.Exchange = exchange
	c.Queue = queue
	return nil
}

// RemoveClient deletes a client account (the user exercised their
// right to erasure; their stored observations remain anonymized).
func (a *Accounts) RemoveClient(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.clients[id]; !ok {
		return fmt.Errorf("remove client: %w", ErrClientNotFound)
	}
	delete(a.clients, id)
	return nil
}

// Anonymize derives the stable anonymous id for a client id.
func (a *Accounts) Anonymize(clientID string) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.anonymizeLocked(clientID)
}

func (a *Accounts) anonymizeLocked(clientID string) string {
	mac := hmac.New(sha256.New, a.anonKey)
	mac.Write([]byte(clientID))
	return "anon-" + hex.EncodeToString(mac.Sum(nil))[:16]
}

// AuthenticateApp checks an app id/secret pair.
func (a *Accounts) AuthenticateApp(id, secret string) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	app, ok := a.apps[id]
	if !ok || subtleNeq(app.Secret, secret) {
		return ErrBadCredentials
	}
	return nil
}

// subtleNeq compares two tokens in constant time.
func subtleNeq(a, b string) bool {
	if len(a) != len(b) {
		return true
	}
	var v byte
	for i := 0; i < len(a); i++ {
		v |= a[i] ^ b[i]
	}
	return v != 0
}

// randomToken mints a 128-bit hex token.
func randomToken() (string, error) {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return "", fmt.Errorf("token: %w", err)
	}
	return hex.EncodeToString(buf), nil
}
