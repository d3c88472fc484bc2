// Package client implements the GoFlow mobile client: it records
// observations produced by the sensing layer and emits them to the
// crowd-sensing broker following one of the two upload policies the
// paper compares (Section 5.3):
//
//   - unbuffered (app v1.1 / v1.2.9): an emission attempt after every
//     observation (every 5 minutes by default);
//   - buffered (app v1.3): observations accumulate and an emission is
//     attempted once the buffer holds BufferSize of them (10 by
//     default, hence every ~50 minutes).
//
// In both policies, when the device has no network at emission time
// the observations stay queued and are retried at the next cycle —
// the behaviour behind the paper's transmission-delay distribution
// (Figure 17).
package client

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

// Transport delivers a batch of observations to the crowd-sensing
// server. Implementations: MQTransport (over the broker) and test
// fakes.
type Transport interface {
	// Send delivers the batch; a non-nil error leaves the batch
	// queued at the client.
	Send(batch []*sensing.Observation, at time.Time) error
}

// Config parameterizes an Uploader.
type Config struct {
	// ClientID is the shared secret / routing id of this client.
	ClientID string
	// AppID is the application exchange id (e.g. "SC").
	AppID string
	// Version is the app version string stamped on observations.
	Version string
	// BufferSize is the emission threshold: 1 reproduces the
	// unbuffered versions, 10 the buffered v1.3.
	BufferSize int
	// DeferToWiFi holds emissions back while only a cellular bearer
	// is available — the cellular radio's wake cost dominates the
	// energy bill (Figure 16's 3G penalty) — until either WiFi
	// appears or the oldest queued observation ages past MaxDefer.
	DeferToWiFi bool
	// MaxDefer caps the delay DeferToWiFi may add (default 2h).
	MaxDefer time.Duration
}

// Validate checks config invariants.
func (c Config) Validate() error {
	if c.ClientID == "" {
		return errors.New("client: missing client id")
	}
	if c.AppID == "" {
		return errors.New("client: missing app id")
	}
	if c.BufferSize < 1 {
		return errors.New("client: buffer size must be >= 1")
	}
	if c.MaxDefer < 0 {
		return errors.New("client: max defer must be >= 0")
	}
	return nil
}

// withDefaults fills derived defaults.
func (c Config) withDefaults() Config {
	if c.DeferToWiFi && c.MaxDefer == 0 {
		c.MaxDefer = 2 * time.Hour
	}
	return c
}

// Bearer identifies the data bearer available at flush time.
type Bearer int

// Bearers.
const (
	// BearerWiFi is the cheap bearer.
	BearerWiFi Bearer = iota + 1
	// BearerCellular wakes the expensive cellular radio.
	BearerCellular
)

// Stats counts uploader activity. The uploader counts into atomics,
// so Stats may be read from any goroutine — a metrics scrape — while
// the sensing loop runs.
type Stats struct {
	Recorded      int `json:"recorded"`
	Sent          int `json:"sent"`
	Batches       int `json:"batches"`
	FailedFlushes int `json:"failedFlushes"`
	// Deferred counts emissions held back waiting for WiFi.
	Deferred int `json:"deferred"`
	// CellularBatches counts batches that went out over cellular.
	CellularBatches int `json:"cellularBatches"`
}

// Uploader buffers observations and flushes them per policy. It is
// not safe for concurrent use: the sensing loop owns it (matching the
// single-threaded sensing service of the app).
type Uploader struct {
	cfg       Config
	transport Transport
	queue     []*sensing.Observation
	// retryPending marks that an emission attempt failed and the
	// queue must be retried at the next cycle regardless of size
	// (the paper's "sent at the next cycle" rule).
	retryPending bool

	recorded, sent, batches, failedFlushes, deferred, cellularBatches atomic.Int64
}

// NewUploader builds an uploader.
func NewUploader(cfg Config, transport Transport) (*Uploader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if transport == nil {
		return nil, errors.New("client: nil transport")
	}
	return &Uploader{cfg: cfg.withDefaults(), transport: transport}, nil
}

// Config returns the uploader configuration.
func (u *Uploader) Config() Config { return u.cfg }

// Record queues one observation (stamping the app version).
func (u *Uploader) Record(o *sensing.Observation) error {
	if o == nil {
		return errors.New("client: nil observation")
	}
	o.AppVersion = u.cfg.Version
	if err := o.Validate(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	u.queue = append(u.queue, o)
	u.recorded.Add(1)
	return nil
}

// ShouldEmit reports whether the policy calls for an emission attempt
// now: the queue holds at least BufferSize observations, or a
// previous attempt failed and anything is still queued (the paper's
// "sent at the next cycle" rule).
func (u *Uploader) ShouldEmit() bool {
	if len(u.queue) == 0 {
		return false
	}
	if len(u.queue) >= u.cfg.BufferSize {
		return true
	}
	// A partial queue below the threshold waits, unless a previous
	// attempt failed — then everything queued goes out at the next
	// opportunity.
	return u.retryPending
}

// Flush attempts an emission at the given instant when the policy
// says so and the device is connected; the bearer is assumed to be
// WiFi. It returns the number of observations handed to the
// transport.
func (u *Uploader) Flush(now time.Time, connected bool) (int, error) {
	return u.FlushOn(now, connected, BearerWiFi)
}

// FlushOn is Flush with an explicit bearer, enabling the DeferToWiFi
// policy: on a cellular bearer the emission is held back until WiFi
// appears or the oldest queued observation ages past MaxDefer.
func (u *Uploader) FlushOn(now time.Time, connected bool, bearer Bearer) (int, error) {
	if !u.ShouldEmit() {
		return 0, nil
	}
	if !connected {
		u.retryPending = true
		u.failedFlushes.Add(1)
		return 0, nil
	}
	if u.cfg.DeferToWiFi && bearer == BearerCellular && !u.deferDeadlinePassed(now) {
		u.retryPending = true // keep trying every cycle
		u.deferred.Add(1)
		return 0, nil
	}
	batch := u.queue
	if err := u.transport.Send(batch, now); err != nil {
		u.retryPending = true
		u.failedFlushes.Add(1)
		return 0, fmt.Errorf("flush %d observations: %w", len(batch), err)
	}
	u.queue = nil
	u.retryPending = false
	u.sent.Add(int64(len(batch)))
	u.batches.Add(1)
	if bearer == BearerCellular {
		u.cellularBatches.Add(1)
	}
	return len(batch), nil
}

// deferDeadlinePassed reports whether the oldest queued observation
// has waited longer than MaxDefer.
func (u *Uploader) deferDeadlinePassed(now time.Time) bool {
	if len(u.queue) == 0 {
		return false
	}
	return now.Sub(u.queue[0].SensedAt) >= u.cfg.MaxDefer
}

// Stats snapshots uploader counters.
func (u *Uploader) Stats() Stats {
	return Stats{
		Recorded:        int(u.recorded.Load()),
		Sent:            int(u.sent.Load()),
		Batches:         int(u.batches.Load()),
		FailedFlushes:   int(u.failedFlushes.Load()),
		Deferred:        int(u.deferred.Load()),
		CellularBatches: int(u.cellularBatches.Load()),
	}
}
