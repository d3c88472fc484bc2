package goflow

import (
	"cmp"
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/obs"
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
	// now times admitted handlers, on the clock the shedder's window
	// and the breaker run on.
	now func() time.Time

	// metrics counts admission decisions once Instrument attached a
	// registry (before the server serves); nil until then.
	metrics *admissionMetrics
}

// admissionMetrics are the guard_* counters and latencies.
type admissionMetrics struct {
	admitted *obs.CounterVec
	rejected *obs.CounterVec
	latency  *obs.HistogramVec
}

// AdmissionConfig parameterizes NewAdmission. The zero value is what
// the server runs: every guard on, at the constants below. Its fields
// are unexported; the tests of this package set them to drive one guard
// at a time.
type AdmissionConfig struct {
	ratePerDevice   float64 // negative disables rate limiting
	rateBurst       float64 // 0 = 4x the rate
	concurrency     map[guard.Class]int
	shedTarget      time.Duration
	breakerFailures int
	breakerOpenFor  time.Duration
	timeout         time.Duration
	seed            int64
	now             func() time.Time
}

// The guards' constants: what the server runs, and what each zero
// AdmissionConfig field stands for.
const (
	// defaultRatePerDevice is the sustained ingest requests/second
	// allowed per device key (X-Device-ID header, else client IP); the
	// token bucket holds four seconds of it.
	defaultRatePerDevice = 50.0
	// defaultConcurrency bounds in-flight requests per class; as many
	// more may wait for a slot.
	defaultConcurrency = 64
	// defaultShedTarget is the p99 latency above which shedding starts.
	defaultShedTarget = 250 * time.Millisecond
	// defaultBreakerFailures consecutive query-path failures open the
	// breaker for defaultBreakerOpenFor.
	defaultBreakerFailures = 5
	defaultBreakerOpenFor  = 5 * time.Second
	// defaultRequestTimeout bounds each admitted request's context; the
	// deadline propagates through the data manager into docstore scans.
	defaultRequestTimeout = 10 * time.Second
	// retryAfter is the hint attached to shed responses.
	retryAfter = time.Second
)

// NewAdmission builds the guard chain.
func NewAdmission(cfg AdmissionConfig) *Admission {
	rate := cmp.Or(cfg.ratePerDevice, defaultRatePerDevice)
	if rate < 0 {
		rate = 0 // guard.RateLimiter treats 0 as unlimited
	}
	openFor := cmp.Or(cfg.breakerOpenFor, defaultBreakerOpenFor)
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	a := &Admission{
		now: now,
		limiter: guard.NewRateLimiter(guard.RateLimiterConfig{
			Rate:  rate,
			Burst: cmp.Or(cfg.rateBurst, 4*rate),
			Now:   now,
		}),
		shedder: guard.NewShedder(guard.ShedderConfig{
			Target:     cmp.Or(cfg.shedTarget, defaultShedTarget),
			RetryAfter: retryAfter,
			Now:        now,
		}),
		sems:    make(map[guard.Class]*guard.Semaphore, 3),
		timeout: cmp.Or(cfg.timeout, defaultRequestTimeout),
	}
	a.breaker = guard.NewBreaker(guard.BreakerConfig{
		FailureThreshold: cmp.Or(cfg.breakerFailures, defaultBreakerFailures),
		OpenFor:          openFor,
		Jitter:           openFor / 5,
		Seed:             cfg.seed,
		Now:              now,
	})
	for _, c := range guard.Classes() {
		limit := cmp.Or(cfg.concurrency[c], defaultConcurrency)
		a.sems[c] = guard.NewSemaphore(limit, limit)
	}
	return a
}

// SetDraining flips the draining flag: while set, every guarded
// request is refused with 503 so load balancers and clients move on
// during graceful shutdown.
func (a *Admission) SetDraining(v bool) { a.draining.Store(v) }

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
// priority class.
func (a *Admission) Guard(class guard.Class, next http.HandlerFunc) http.HandlerFunc {
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
		useBreaker := class == guard.ClassQuery
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

		ctx, cancel := context.WithTimeout(r.Context(), a.timeout)
		defer cancel()
		r = r.WithContext(ctx)
		m := a.metrics
		if m != nil {
			m.admitted.With(class.String()).Inc()
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := a.now()
		next(rec, r)
		elapsed := a.now().Sub(start)
		a.shedder.Observe(elapsed)
		if m != nil {
			m.latency.With(class.String()).ObserveDuration(elapsed)
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
	if a.draining.Load() {
		a.reject(guard.ClassLive, "draining")
		return guard.Reject(guard.ErrDraining, time.Second)
	}
	if err := a.shedder.Admit(guard.ClassLive); err != nil {
		a.reject(guard.ClassLive, "overloaded")
		return err
	}
	if m := a.metrics; m != nil {
		m.admitted.With(guard.ClassLive.String()).Inc()
	}
	return nil
}

// reject counts a refusal by the guard that refused: "draining",
// "rate_limited", "overloaded", "breaker_open" or "queue_full".
func (a *Admission) reject(class guard.Class, reason string) {
	if m := a.metrics; m != nil {
		m.rejected.With(class.String(), reason).Inc()
	}
}

// instrument registers the guard_* families on reg: decisions and
// handler latencies are counted here from now on, and the shedder's
// p99, the in-flight counts and the breaker state are read at every
// scrape.
func (a *Admission) instrument(reg *obs.Registry) {
	a.metrics = &admissionMetrics{
		admitted: reg.CounterVec("guard_admitted_total",
			"API requests admitted past every guard, by priority class.", "class"),
		rejected: reg.CounterVec("guard_rejected_total",
			"API requests refused by an admission guard, by class and guard.", "class", "reason"),
		latency: reg.HistogramVec("guard_latency_seconds",
			"Handler latency of admitted requests, by priority class.", nil, "class"),
	}
	inflight := reg.GaugeVec("guard_inflight",
		"Admitted, unfinished API requests, by priority class.", "class")
	p99 := reg.Gauge("guard_p99_seconds",
		"Moving-window p99 handler latency driving the load shedder.")
	breaker := reg.Gauge("guard_breaker_state",
		"Query-path circuit breaker state (0 closed, 1 half-open, 2 open).")
	reg.OnCollect(func() {
		p99.Set(a.shedder.P99().Seconds())
		for _, c := range guard.Classes() {
			inflight.With(c.String()).Set(float64(a.InFlight(c)))
		}
		var v float64
		switch a.breaker.State() {
		case guard.BreakerHalfOpen:
			v = 1
		case guard.BreakerOpen:
			v = 2
		}
		breaker.Set(v)
	})
}
