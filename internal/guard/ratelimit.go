package guard

import (
	"sync"
	"time"
)

// RateLimiterConfig parameterises a keyed token-bucket limiter.
type RateLimiterConfig struct {
	// Rate is the sustained refill rate in tokens per second.
	Rate float64
	// Burst is the bucket capacity: how many requests a key may issue
	// back-to-back after an idle period. Values < 1 are raised to 1.
	Burst float64
	// Now overrides the clock for tests. Defaults to time.Now.
	Now func() time.Time

	// maxKeys bounds the number of tracked keys; when exceeded the
	// stalest bucket is evicted. The bound keeps a device-ID-spoofing
	// client from growing server memory. Defaults to defaultMaxKeys;
	// a test of this package lowers it.
	maxKeys int
}

// defaultMaxKeys bounds tracked rate-limiter keys.
const defaultMaxKeys = 65536

// RateLimiter is a token-bucket rate limiter keyed by an opaque string
// (device ID, client IP). Each key refills at Rate tokens/second up to
// Burst. It is safe for concurrent use.
type RateLimiter struct {
	cfg RateLimiterConfig

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter. Rate <= 0 means unlimited: Allow
// always admits.
func NewRateLimiter(cfg RateLimiterConfig) *RateLimiter {
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.maxKeys <= 0 {
		cfg.maxKeys = defaultMaxKeys
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &RateLimiter{cfg: cfg, buckets: make(map[string]*bucket)}
}

// Allow reports whether one request for key may proceed now, spending a
// token if so. On rejection it returns the wait until a token will be
// available — the Retry-After hint.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	if l.cfg.Rate <= 0 {
		return true, 0
	}
	now := l.cfg.Now()

	l.mu.Lock()
	defer l.mu.Unlock()

	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.cfg.maxKeys {
			l.evictStalestLocked()
		}
		b = &bucket{tokens: l.cfg.Burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * l.cfg.Rate
			if b.tokens > l.cfg.Burst {
				b.tokens = l.cfg.Burst
			}
			b.last = now
		}
	}

	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / l.cfg.Rate * float64(time.Second))
}

// evictStalestLocked removes the bucket touched longest ago. A linear
// scan is fine: eviction only happens at the maxKeys ceiling, which a
// well-behaved deployment never reaches.
func (l *RateLimiter) evictStalestLocked() {
	var (
		stalest   string
		stalestAt time.Time
		first     = true
	)
	for k, b := range l.buckets {
		if first || b.last.Before(stalestAt) {
			stalest, stalestAt, first = k, b.last, false
		}
	}
	if !first {
		delete(l.buckets, stalest)
	}
}
