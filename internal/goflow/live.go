package goflow

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/series"
)

// Live subscription layer: instead of polling GET /v1/observations,
// a dashboard opens an SSE stream on /v1/live/sse and the
// broker's compiled trie fans matching messages straight onto the
// socket. Delivery over the stream is at-most-once — a full mailbox
// drops, a hopeless consumer is shed — and the cursor API is the
// complement: a client that reconnects resumes its read position with
// GET /v1/observations?cursor=..., so stream + catch-up together give
// exactly-once consumption without the server buffering for absent
// readers (the unbounded-queue failure mode the paper's deployment
// kept running into).

// Live layer errors.
var (
	// ErrLiveLimit reports the hub's concurrent-socket cap.
	ErrLiveLimit = errors.New("goflow: live socket limit reached")
	// ErrLiveClosed reports a hub that has been drained.
	ErrLiveClosed = errors.New("goflow: live hub closed")
	// ErrBadCursor reports an unparseable cursor token.
	ErrBadCursor = errors.New("goflow: malformed cursor")
)

// LiveConfig parameterizes the hub. The zero value gets defaults.
type LiveConfig struct {
	// Buffer is the per-socket mailbox capacity (default 256).
	Buffer int
	// SendBudget is how long a socket's mailbox may stay continuously
	// full before the consumer is shed (default 5s; negative sheds on
	// the first full-queue event).
	SendBudget time.Duration
	// MaxSockets caps concurrent live subscriptions (default 1024).
	MaxSockets int
	// now overrides the budget clock for this package's tests.
	now func() time.Time
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.Buffer <= 0 {
		c.Buffer = 256
	}
	if c.SendBudget == 0 {
		c.SendBudget = 5 * time.Second
	}
	if c.SendBudget < 0 {
		c.SendBudget = 0
	}
	if c.MaxSockets <= 0 {
		c.MaxSockets = 1024
	}
	return c
}

// LiveHub owns the server side of live subscriptions: it admits
// sockets against the cap, attaches them to the broker's live fan-out
// on the GoFlow exchange, and ends every one of them at drain time so
// graceful shutdown is not held open by idle dashboards.
type LiveHub struct {
	broker *mq.Broker
	cfg    LiveConfig

	mu     sync.Mutex
	subs   map[*mq.LiveSub]struct{}
	closed bool

	catchups atomic.Uint64
}

// NewLiveHub builds a hub over the broker.
func NewLiveHub(broker *mq.Broker, cfg LiveConfig) *LiveHub {
	return &LiveHub{
		broker: broker,
		cfg:    cfg.withDefaults(),
		subs:   make(map[*mq.LiveSub]struct{}),
	}
}

// Config reports the effective (defaulted) configuration.
func (h *LiveHub) Config() LiveConfig { return h.cfg }

// Sockets reports currently attached live subscriptions.
func (h *LiveHub) Sockets() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// CatchupReads reports cursor catch-up reads served (monotonic).
func (h *LiveHub) CatchupReads() uint64 { return h.catchups.Load() }

// RecordCatchup counts one cursor catch-up read.
func (h *LiveHub) RecordCatchup() { h.catchups.Add(1) }

// Subscribe attaches a live subscription on the GoFlow exchange with
// its own bounded mailbox and send budget. The caller must Release it
// on every exit path.
func (h *LiveHub) Subscribe(patterns []string) (*mq.LiveSub, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrLiveClosed
	}
	if len(h.subs) >= h.cfg.MaxSockets {
		h.mu.Unlock()
		return nil, ErrLiveLimit
	}
	sub, err := h.broker.SubscribeLive(GoFlowExchange, patterns, mq.LiveSubOptions{
		Buffer: h.cfg.Buffer,
		Budget: guard.NewSendBudget(h.cfg.SendBudget, h.cfg.now),
	})
	if err != nil {
		h.mu.Unlock()
		return nil, err
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub, nil
}

// Release detaches and closes a subscription (idempotent).
func (h *LiveHub) Release(sub *mq.LiveSub) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	sub.Close()
}

// Close ends every attached subscription and refuses new ones; part
// of server drain. Idempotent.
func (h *LiveHub) Close() {
	h.mu.Lock()
	subs := make([]*mq.LiveSub, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[*mq.LiveSub]struct{})
	h.closed = true
	h.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// livePatterns builds the broker topic patterns for a live request.
// Explicit pattern parameters win; otherwise one pattern is assembled
// from the app/datatype/zone parameters over the canonical key shape
// "<app>.<client>.<datatype>.<zone>" (empty parts wildcard).
func livePatterns(patterns []string, app, datatype, zone string) ([]string, error) {
	if len(patterns) > 0 {
		for _, p := range patterns {
			if p == "" {
				return nil, errors.New("goflow: empty live pattern")
			}
		}
		return patterns, nil
	}
	part := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	if zone == "" {
		// No zone pin: match any tail, including the "ZZ" unlocalized
		// marker.
		return []string{part(app) + ".*." + part(datatype) + ".#"}, nil
	}
	return []string{part(app) + ".*." + part(datatype) + "." + zone}, nil
}

// LiveEvent is the JSON shape pushed in each SSE data line.
type LiveEvent struct {
	App         string          `json:"app"`
	Client      string          `json:"client,omitempty"`
	Datatype    string          `json:"datatype"`
	Zone        string          `json:"zone,omitempty"`
	RoutingKey  string          `json:"routingKey"`
	PublishedAt time.Time       `json:"publishedAt,omitempty"`
	Body        json.RawMessage `json:"body,omitempty"`
}

// liveEventFromMessage decodes a broker message into the push shape.
// The routing key carries "<app>.<client>.<datatype>.<zone>"; bodies
// that are not valid JSON are re-encoded as a JSON string so the
// event stays parseable.
func liveEventFromMessage(m *mq.Message) LiveEvent {
	ev := LiveEvent{RoutingKey: m.RoutingKey, PublishedAt: m.PublishedAt}
	parts := strings.SplitN(m.RoutingKey, ".", 4)
	if len(parts) > 0 {
		ev.App = parts[0]
	}
	if len(parts) > 1 {
		ev.Client = parts[1]
	}
	if len(parts) > 2 {
		ev.Datatype = parts[2]
	}
	if len(parts) > 3 {
		ev.Zone = parts[3]
	}
	if len(m.Body) > 0 {
		if json.Valid(m.Body) {
			ev.Body = json.RawMessage(m.Body)
		} else if quoted, err := json.Marshal(string(m.Body)); err == nil {
			ev.Body = quoted
		}
	}
	return ev
}

// Cursor tokens. A cursor is the _id of the last document the client
// consumed, wrapped in a versioned, URL-safe opaque token — clients
// must treat it as a blob. Anchoring on the _id (not an offset or an
// LSN) is what makes the token survive restarts, checkpoint restores
// and batch inserts: the document's identity is stable however it got
// stored, and the docstore can reconstruct the position even when the
// anchor itself was deleted (see docstore.FindAfterContext).
const cursorPrefix = "v1:"

// EncodeCursor wraps a document id into an opaque resume token.
func EncodeCursor(lastID string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + lastID))
}

// DecodeCursor unwraps a resume token into the anchor document id.
func DecodeCursor(token string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	s := string(raw)
	if !strings.HasPrefix(s, cursorPrefix) || len(s) == len(cursorPrefix) {
		return "", ErrBadCursor
	}
	return s[len(cursorPrefix):], nil
}

// LatestEntry is one zone's most recent observation summary.
type LatestEntry struct {
	Zone     string    `json:"zone"`
	SPL      float64   `json:"spl"`
	SensedAt time.Time `json:"sensedAt"`
}

// LatestCache holds the most recent sound level per zone, fed by the
// series ingest observer — the "what is it like right now" map tile
// lookup, answered from memory without touching the docstore or the
// rollups. Bounded by the zone grid, so it never grows past a few
// thousand entries.
type LatestCache struct {
	mu sync.RWMutex
	m  map[string]LatestEntry
}

// NewLatestCache builds an empty cache.
func NewLatestCache() *LatestCache {
	return &LatestCache{m: make(map[string]LatestEntry)}
}

// Observe folds a batch of series points into the cache, keeping the
// newest point per zone. Points with no zone are skipped. The
// signature matches series.DB.SetPointObserver.
func (c *LatestCache) Observe(pts []series.Point) {
	c.mu.Lock()
	for _, p := range pts {
		if p.Zone == "" {
			continue
		}
		if cur, ok := c.m[p.Zone]; ok && cur.SensedAt.UnixMilli() > p.TS {
			continue
		}
		c.m[p.Zone] = LatestEntry{
			Zone:     p.Zone,
			SPL:      p.Value,
			SensedAt: time.UnixMilli(p.TS).UTC(),
		}
	}
	c.mu.Unlock()
}

// Snapshot returns the cache contents sorted by zone id.
func (c *LatestCache) Snapshot() []LatestEntry {
	c.mu.RLock()
	out := make([]LatestEntry, 0, len(c.m))
	for _, e := range c.m {
		out = append(out, e)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Zone < out[j].Zone })
	return out
}

// Zone returns one zone's entry.
func (c *LatestCache) Zone(zone string) (LatestEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.m[zone]
	return e, ok
}
