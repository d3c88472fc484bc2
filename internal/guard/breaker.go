package guard

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is a circuit breaker state.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: traffic flows, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen: a limited number of probe requests test the
	// dependency; success re-closes, failure re-opens.
	BreakerHalfOpen
)

// String implements fmt.Stringer; values double as metric labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterises a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that
	// trips the breaker open. Defaults to 5.
	FailureThreshold int
	// OpenFor is the base cool-down spent open before probing.
	// Defaults to 5s.
	OpenFor time.Duration
	// Jitter is the maximum extra cool-down added on each trip,
	// drawn from a seeded source so overload runs replay exactly —
	// the same determinism convention as internal/faults. Zero means
	// no jitter.
	Jitter time.Duration
	// Seed seeds the jitter source. The same (Seed, trip sequence)
	// yields the same cool-downs.
	Seed int64
	// Now overrides the clock for tests. Defaults to time.Now.
	Now func() time.Time
}

// halfOpenProbes is how many concurrent probes half-open admits.
const halfOpenProbes = 1

// Breaker is a generic closed/open/half-open circuit breaker. Callers
// bracket each protected operation with Allow and Record:
//
//	if err := b.Allow(); err != nil { return err }
//	err := op()
//	b.Record(err == nil)
type Breaker struct {
	cfg BreakerConfig
	rng *rand.Rand // guarded by mu

	mu        sync.Mutex
	state     BreakerState
	failures  int
	openUntil time.Time
	probes    int // in-flight half-open probes
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// State returns the current state, advancing open→half-open if the
// cool-down has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(b.cfg.Now())
	return b.state
}

// Allow reports whether a protected call may proceed. In the open
// state it returns a *Rejection wrapping ErrBreakerOpen whose
// RetryAfter is the remaining cool-down. In half-open it admits up to
// halfOpenProbes concurrent probes and rejects the rest.
func (b *Breaker) Allow() error {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	var err error
	switch b.state {
	case BreakerClosed:
	case BreakerHalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
		} else {
			err = Reject(ErrBreakerOpen, b.cfg.OpenFor)
		}
	default: // BreakerOpen
		wait := b.openUntil.Sub(now)
		if wait < 0 {
			wait = 0
		}
		err = Reject(ErrBreakerOpen, wait)
	}
	return err
}

// Record reports the outcome of a call previously admitted by Allow.
func (b *Breaker) Record(ok bool) {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
		} else {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				b.tripLocked(now)
			}
		}
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if ok {
			b.state = BreakerClosed
			b.failures = 0
			b.probes = 0
		} else {
			b.tripLocked(now)
		}
	case BreakerOpen:
		// A straggler from before the trip; outcome is stale.
	}
}

// tripLocked moves to open and schedules the next probe window with
// seeded jitter.
func (b *Breaker) tripLocked(now time.Time) {
	b.state = BreakerOpen
	b.failures = 0
	b.probes = 0
	cool := b.cfg.OpenFor
	if b.cfg.Jitter > 0 {
		cool += time.Duration(b.rng.Int63n(int64(b.cfg.Jitter)))
	}
	b.openUntil = now.Add(cool)
}

// advanceLocked moves open→half-open once the cool-down has elapsed.
func (b *Breaker) advanceLocked(now time.Time) {
	if b.state == BreakerOpen && !now.Before(b.openUntil) {
		b.state = BreakerHalfOpen
		b.probes = 0
	}
}
