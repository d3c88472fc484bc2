// Package guard implements the server-side overload protection of the
// GoFlow middleware: admission control, backpressure and graceful
// degradation. The paper's ten-month deployment showed that
// crowd-sensing load is violently bursty — contributions spike around
// public events and app-store features — and that the middleware, not
// the phones, is the availability bottleneck. The primitives here let
// the collection point shed load deliberately instead of collapsing:
//
//   - RateLimiter: a token-bucket limiter keyed by device or IP, so a
//     single runaway client cannot starve the rest of the crowd.
//   - Semaphore: a concurrency limit with a bounded wait queue, the
//     "controlled queueing" alternative to unbounded goroutine pileup.
//   - Shedder: an adaptive load shedder driven by a moving p99-latency
//     signal that degrades work class by class — analytics first,
//     sensed observations last.
//   - Breaker: a generic circuit breaker (closed/open/half-open) with
//     seeded probe jitter, following the determinism conventions of
//     internal/faults so overload runs are reproducible from a seed.
//
// The package is dependency-free (no metrics, no HTTP): callers
// observe decisions through return values and wire them to transports
// and metric registries themselves — internal/goflow adapts these onto
// its REST admission middleware and obs counters.
package guard

import (
	"errors"
	"time"
)

// Class is the priority class of a unit of work. Lower values are more
// important and are degraded last: the deployment lesson is that
// sensed observations are irreplaceable (the phone may never re-offer
// them) while analytics and exports can always be recomputed.
type Class int

// Priority classes, most important first.
const (
	// ClassIngest covers sensed-observation uploads and the channel
	// provisioning needed to produce them. Shed last.
	ClassIngest Class = iota
	// ClassQuery covers interactive channel/data queries.
	ClassQuery
	// ClassAnalytics covers analytics, exports and background jobs —
	// recomputable work that is shed first under pressure.
	ClassAnalytics
	// ClassLive covers live push subscriptions (SSE fan-out).
	// A dropped live event is recoverable — the client catches up over
	// the cursor API — so live work shares the bottom shed rank with
	// analytics and never displaces ingest or queries.
	ClassLive

	numClasses = 4
)

// String implements fmt.Stringer; the values double as metric labels.
func (c Class) String() string {
	switch c {
	case ClassIngest:
		return "ingest"
	case ClassQuery:
		return "query"
	case ClassAnalytics:
		return "analytics"
	case ClassLive:
		return "live"
	default:
		return "unknown"
	}
}

// Classes lists every priority class, most important first.
func Classes() []Class {
	return []Class{ClassIngest, ClassQuery, ClassAnalytics, ClassLive}
}

// Guard decision errors. All carry a RetryAfter hint through
// RetryAfter().
var (
	// ErrRateLimited reports a request rejected by a token-bucket
	// limiter (HTTP 429).
	ErrRateLimited = errors.New("guard: rate limited")
	// ErrOverloaded reports a request shed by the adaptive shedder or a
	// full wait queue (HTTP 503).
	ErrOverloaded = errors.New("guard: overloaded")
	// ErrBreakerOpen reports a request refused because the protected
	// dependency's circuit breaker is open (HTTP 503).
	ErrBreakerOpen = errors.New("guard: circuit open")
	// ErrDraining reports a request refused because the server is
	// shutting down (HTTP 503).
	ErrDraining = errors.New("guard: draining")
)

// Rejection is a guard decision to refuse work, carrying the typed
// cause and a client back-off hint.
type Rejection struct {
	// Cause is one of the guard sentinel errors above.
	Cause error
	// RetryAfter is the suggested client back-off. Zero means
	// "immediately retryable" and transports may omit the hint.
	RetryAfter time.Duration
}

// Error implements error.
func (r *Rejection) Error() string { return r.Cause.Error() }

// Unwrap exposes the sentinel cause to errors.Is.
func (r *Rejection) Unwrap() error { return r.Cause }

// Reject builds a Rejection.
func Reject(cause error, retryAfter time.Duration) *Rejection {
	return &Rejection{Cause: cause, RetryAfter: retryAfter}
}

// RetryAfterHint extracts the back-off hint from a guard error, zero
// when err carries none.
func RetryAfterHint(err error) time.Duration {
	var r *Rejection
	if errors.As(err, &r) {
		return r.RetryAfter
	}
	return 0
}
