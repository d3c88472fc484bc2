package guard

import (
	"sort"
	"sync"
	"time"
)

// ShedderConfig parameterises the adaptive load shedder.
type ShedderConfig struct {
	// Target is the p99 latency the server tries to hold. When the
	// moving p99 exceeds Target the shedder starts refusing the least
	// important class; each further multiple of Target sheds the next
	// class up. Ingest is only shed beyond numClasses*Target — i.e.
	// last, per the "never drop sensed observations until last" rule.
	Target time.Duration
	// RetryAfter is the back-off hint attached to shed decisions.
	// Defaults to 1s.
	RetryAfter time.Duration
	// Now overrides the clock for tests. Defaults to time.Now.
	Now func() time.Time

	// window is the moving window over which p99 is computed: 10s
	// unless a test of this package moves it.
	window time.Duration
	// minSamples is the minimum number of observations in the window
	// before the shedder acts; below it everything is admitted: 20
	// unless a test of this package moves it.
	minSamples int
}

// Shedder is an adaptive load shedder driven by a moving p99-latency
// signal. Handlers report their latency through Observe; Admit refuses
// work class by class as the p99 climbs past multiples of the target,
// always degrading analytics first and ingest last.
type Shedder struct {
	cfg ShedderConfig

	mu sync.Mutex
	// samples[head:] is the moving window, oldest first; expired
	// samples are dropped by advancing head on each touch, and the dead
	// prefix is cut off once it is the larger half.
	samples []latencySample
	head    int
	// reached[k-1] counts window samples of at least k×Target. Admit
	// needs only min(⌊p99/Target⌋, numShedRanks), and the nearest-rank
	// p99 is >= k×Target exactly when at least n-rank+1 samples are, so
	// these counters decide as the sorted window would, in O(1).
	reached [numShedRanks]int
}

type latencySample struct {
	at time.Time
	d  time.Duration
}

// NewShedder builds a shedder. A zero Target disables shedding: Admit
// always accepts.
func NewShedder(cfg ShedderConfig) *Shedder {
	if cfg.window <= 0 {
		cfg.window = 10 * time.Second
	}
	if cfg.minSamples <= 0 {
		cfg.minSamples = 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Shedder{cfg: cfg}
}

// Observe records one request latency into the moving window.
func (s *Shedder) Observe(d time.Duration) {
	if s.cfg.Target <= 0 {
		return
	}
	now := s.cfg.Now()
	s.mu.Lock()
	s.pruneLocked(now)
	s.samples = append(s.samples, latencySample{at: now, d: d})
	s.tallyLocked(d, +1)
	s.mu.Unlock()
}

// tallyLocked adds delta to the counter of every multiple of Target a
// sample of d reaches: ⌊d/Target⌋ of them, capped at numShedRanks —
// the pressure a p99 of d would exert.
func (s *Shedder) tallyLocked(d time.Duration, delta int) {
	for k := min(d/s.cfg.Target, numShedRanks); k > 0; k-- {
		s.reached[k-1] += delta
	}
}

// p99Rank is the 1-based nearest-rank index of the p99 among n sorted
// samples: ceil(0.99*n).
func p99Rank(n int) int {
	return min((n*99+99)/100, n)
}

// Admit reports whether work of class c should run now. On rejection
// the error is a *Rejection wrapping ErrOverloaded with a RetryAfter
// hint.
func (s *Shedder) Admit(c Class) error {
	if s.cfg.Target <= 0 {
		return nil
	}
	s.mu.Lock()
	s.pruneLocked(s.cfg.Now())
	n := len(s.samples) - s.head
	// Pressure 1 sheds the least important rank (analytics and live),
	// 2 also sheds queries, 3 sheds everything including ingest.
	pressure := 0
	if n >= s.cfg.minSamples {
		atOrAbove := n - p99Rank(n) + 1 // samples at or above the p99
		for pressure < numShedRanks && s.reached[pressure] >= atOrAbove {
			pressure++
		}
	}
	s.mu.Unlock()
	// Class c is shed when its rank from the bottom is < pressure.
	if shedRank(c) < pressure {
		return Reject(ErrOverloaded, s.cfg.RetryAfter)
	}
	return nil
}

// numShedRanks is the number of distinct shed ranks; pressure beyond
// it cannot shed more.
const numShedRanks = 3

// shedRank orders classes by how early they are shed: rank 0 goes
// first, the top rank last. Live push shares the bottom rank with
// analytics — both are recoverable (analytics recomputes, live clients
// catch up over cursors) — so adding the live class did not move the
// pressure thresholds of the original three classes.
func shedRank(c Class) int {
	switch c {
	case ClassAnalytics, ClassLive:
		return 0
	case ClassQuery:
		return 1
	default: // ClassIngest: sensed observations are irreplaceable
		return 2
	}
}

// P99 returns the current moving-window p99 latency, or 0 when the
// window holds fewer than minSamples observations.
func (s *Shedder) P99() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(s.cfg.Now())
	window := s.samples[s.head:]
	n := len(window)
	if n < s.cfg.minSamples {
		return 0
	}
	ds := make([]time.Duration, n)
	for i, smp := range window {
		ds[i] = smp.d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[p99Rank(n)-1]
}

func (s *Shedder) pruneLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.window)
	for s.head < len(s.samples) && s.samples[s.head].at.Before(cutoff) {
		s.tallyLocked(s.samples[s.head].d, -1)
		s.head++
	}
	if s.head*2 > len(s.samples) {
		s.samples = append(s.samples[:0], s.samples[s.head:]...)
		s.head = 0
	}
}
