package goflow

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/guard"
)

// Admission is the server-side overload protection of the REST layer:
// every API request passes through priority-classed admission control
// before reaching its handler. The paper's large-scale deployment
// found that burst load from synchronized mobile clients (alarm-clock
// upload schedules, connectivity-restored floods) is the norm, not
// the exception — the server must degrade predictably instead of
// collapsing. Guards run cheapest-first:
//
//  1. draining flag — a shutting-down server refuses new work
//  2. per-device token bucket — one hot device cannot starve the rest
//  3. adaptive load shedder — under pressure, analytics requests are
//     refused first, then queries; sensed observations are dropped
//     only as the last resort (data is the product; dashboards wait)
//  4. circuit breaker on the query path — repeated backend failures
//     stop the stampede into a struggling store
//  5. per-class concurrency semaphore with a bounded wait queue —
//     bounded latency beats unbounded queueing
//
// Rejections carry Retry-After so well-behaved clients (the mq
// resilient dialer, the uploader transport) back off instead of
// hammering.
type Admission struct {
	limiter  *guard.RateLimiter
	shedder  *guard.Shedder
	breaker  *guard.Breaker
	sems     map[guard.Class]*guard.Semaphore
	timeout  time.Duration
	draining atomic.Bool

	// hooks observes admission decisions for metrics; the zero value
	// is inert.
	hooks AdmissionHooks
}

// AdmissionHooks observes guard decisions. Nil funcs are skipped.
type AdmissionHooks struct {
	// Admitted fires when a request passes every guard.
	Admitted func(class guard.Class)
	// Rejected fires with the guard that refused: "draining",
	// "rate_limited", "overloaded", "breaker_open" or "queue_full".
	Rejected func(class guard.Class, reason string)
	// Observed fires with the handler latency of admitted requests.
	Observed func(class guard.Class, d time.Duration)
	// BreakerChange fires on query-path breaker transitions.
	BreakerChange func(from, to guard.BreakerState)
}

// AdmissionConfig parameterizes NewAdmission. The zero value enables
// every guard with defaults sized for a single-node deployment.
type AdmissionConfig struct {
	// RatePerDevice is the sustained ingest requests/second allowed
	// per device key (X-Device-ID header, else client IP). 0 uses
	// DefaultRatePerDevice; negative disables rate limiting.
	RatePerDevice float64
	// RateBurst is the token-bucket burst (0 = 4x the rate).
	RateBurst float64
	// Concurrency bounds in-flight requests per class; 0 entries use
	// DefaultConcurrency.
	Concurrency map[guard.Class]int
	// MaxWaiting bounds the semaphore wait queue per class
	// (0 = same as the concurrency limit).
	MaxWaiting int
	// ShedTarget is the p99 latency above which shedding starts
	// (0 = DefaultShedTarget; negative disables the shedder).
	ShedTarget time.Duration
	// BreakerFailures trips the query breaker after that many
	// consecutive backend failures (0 = 5; negative disables).
	BreakerFailures int
	// BreakerOpenFor is the breaker cooldown (0 = 5s).
	BreakerOpenFor time.Duration
	// Timeout bounds each admitted request's context; the deadline
	// propagates through the data manager into docstore scans
	// (0 = DefaultRequestTimeout; negative disables).
	Timeout time.Duration
	// RetryAfter is the hint attached to shed responses (0 = 1s).
	RetryAfter time.Duration
	// Seed feeds the breaker's deterministic probe jitter.
	Seed int64
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Defaults for AdmissionConfig zero values.
const (
	DefaultRatePerDevice  = 50.0
	DefaultConcurrency    = 64
	DefaultShedTarget     = 250 * time.Millisecond
	DefaultRequestTimeout = 10 * time.Second
)

// NewAdmission builds the guard chain.
func NewAdmission(cfg AdmissionConfig) *Admission {
	rate := cfg.RatePerDevice
	if rate == 0 {
		rate = DefaultRatePerDevice
	}
	if rate < 0 {
		rate = 0 // guard.RateLimiter treats 0 as unlimited
	}
	burst := cfg.RateBurst
	if burst == 0 {
		burst = 4 * rate
	}
	target := cfg.ShedTarget
	if target == 0 {
		target = DefaultShedTarget
	}
	if target < 0 {
		target = 0 // guard.Shedder treats 0 as disabled
	}
	retryAfter := cfg.RetryAfter
	if retryAfter == 0 {
		retryAfter = time.Second
	}
	failures := cfg.BreakerFailures
	if failures == 0 {
		failures = 5
	}
	openFor := cfg.BreakerOpenFor
	if openFor == 0 {
		openFor = 5 * time.Second
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	a := &Admission{
		limiter: guard.NewRateLimiter(guard.RateLimiterConfig{
			Rate:  rate,
			Burst: burst,
			Now:   cfg.Now,
		}),
		shedder: guard.NewShedder(guard.ShedderConfig{
			Target:     target,
			RetryAfter: retryAfter,
			Now:        cfg.Now,
		}),
		sems:    make(map[guard.Class]*guard.Semaphore, 3),
		timeout: timeout,
	}
	if cfg.BreakerFailures >= 0 {
		a.breaker = guard.NewBreaker(guard.BreakerConfig{
			FailureThreshold: failures,
			OpenFor:          openFor,
			Jitter:           openFor / 5,
			Seed:             cfg.Seed,
			Now:              cfg.Now,
			OnStateChange: func(from, to guard.BreakerState) {
				if a.hooks.BreakerChange != nil {
					a.hooks.BreakerChange(from, to)
				}
			},
		})
	}
	for _, c := range guard.Classes() {
		limit := cfg.Concurrency[c]
		if limit <= 0 {
			limit = DefaultConcurrency
		}
		maxWait := cfg.MaxWaiting
		if maxWait <= 0 {
			maxWait = limit
		}
		a.sems[c] = guard.NewSemaphore(limit, maxWait)
	}
	return a
}

// SetHooks installs decision observers. Call before serving traffic.
func (a *Admission) SetHooks(h AdmissionHooks) { a.hooks = h }

// SetDraining flips the draining flag: while set, every guarded
// request is refused with 503 so load balancers and clients move on
// during graceful shutdown.
func (a *Admission) SetDraining(v bool) { a.draining.Store(v) }

// Breaker exposes the query-path breaker (nil when disabled).
func (a *Admission) Breaker() *guard.Breaker { return a.breaker }

// Shedder exposes the latency-driven shedder.
func (a *Admission) Shedder() *guard.Shedder { return a.shedder }

// InFlight reports admitted, unfinished requests of a class.
func (a *Admission) InFlight(c guard.Class) int { return a.sems[c].InUse() }

// deviceKey identifies the rate-limit bucket: the device id when the
// client sends one, else the remote IP (ports churn per connection
// and would defeat the bucket).
func deviceKey(r *http.Request) string {
	if id := r.Header.Get("X-Device-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// rejectHTTP writes a guard rejection: 429 for per-device rate
// limiting, 503 for everything else, always with Retry-After.
func rejectHTTP(w http.ResponseWriter, err error, fallback time.Duration) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, guard.ErrRateLimited) {
		status = http.StatusTooManyRequests
	}
	retry := guard.RetryAfterHint(err)
	if retry <= 0 {
		retry = fallback
	}
	secs := int(retry / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusRecorder captures the handler's status code so the breaker
// can distinguish backend failure (5xx) from success.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Guard wraps an API handler with the admission chain for one
// priority class. A nil Admission passes requests straight through,
// so handlers never need to nil-check.
func (a *Admission) Guard(class guard.Class, next http.HandlerFunc) http.HandlerFunc {
	if a == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if a.draining.Load() {
			a.reject(class, "draining")
			rejectHTTP(w, guard.Reject(guard.ErrDraining, time.Second), time.Second)
			return
		}
		// Per-device fairness applies to ingest only: one misbehaving
		// device throttles itself, not the whole fleet; queries are
		// governed by the shedder and semaphores below.
		if class == guard.ClassIngest {
			if ok, retry := a.limiter.Allow(deviceKey(r)); !ok {
				a.reject(class, "rate_limited")
				rejectHTTP(w, guard.Reject(guard.ErrRateLimited, retry), retry)
				return
			}
		}
		if err := a.shedder.Admit(class); err != nil {
			a.reject(class, "overloaded")
			rejectHTTP(w, err, time.Second)
			return
		}
		useBreaker := a.breaker != nil && class == guard.ClassQuery
		if useBreaker {
			if err := a.breaker.Allow(); err != nil {
				a.reject(class, "breaker_open")
				rejectHTTP(w, err, time.Second)
				return
			}
		}
		sem := a.sems[class]
		if err := sem.Acquire(r.Context()); err != nil {
			a.reject(class, "queue_full")
			rejectHTTP(w, guard.Reject(err, time.Second), time.Second)
			return
		}
		defer sem.Release()

		if a.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if a.hooks.Admitted != nil {
			a.hooks.Admitted(class)
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next(rec, r)
		elapsed := time.Since(start)
		a.shedder.Observe(elapsed)
		if a.hooks.Observed != nil {
			a.hooks.Observed(class, elapsed)
		}
		if useBreaker {
			a.breaker.Record(rec.status < http.StatusInternalServerError)
		}
	}
}

// AdmitLive runs the admission guards that make sense for a live
// stream attach: the draining flag and the load shedder (ClassLive
// shares the bottom shed rank with analytics — a refused stream is
// recoverable via the cursor API). Streams deliberately skip Guard's
// per-request semaphore and timeout: a socket held for minutes would
// permanently occupy a slot sized for request/response traffic.
// Stream concurrency is bounded by the hub's MaxSockets and slow
// consumers by per-socket send budgets instead.
func (a *Admission) AdmitLive() error {
	if a == nil {
		return nil
	}
	if a.draining.Load() {
		a.reject(guard.ClassLive, "draining")
		return guard.Reject(guard.ErrDraining, time.Second)
	}
	if err := a.shedder.Admit(guard.ClassLive); err != nil {
		a.reject(guard.ClassLive, "overloaded")
		return err
	}
	if a.hooks.Admitted != nil {
		a.hooks.Admitted(guard.ClassLive)
	}
	return nil
}

func (a *Admission) reject(class guard.Class, reason string) {
	if a.hooks.Rejected != nil {
		a.hooks.Rejected(class, reason)
	}
}
