package guard

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortShedder is the reference the O(1) shedder must agree with: it
// keeps the whole window and derives every decision from the sorted
// nearest-rank p99, the way Admit did before it kept threshold
// counters.
type sortShedder struct {
	cfg     ShedderConfig
	samples []latencySample
}

func (r *sortShedder) prune() {
	cutoff := r.cfg.Now().Add(-r.cfg.window)
	i := 0
	for i < len(r.samples) && r.samples[i].at.Before(cutoff) {
		i++
	}
	r.samples = r.samples[i:]
}

func (r *sortShedder) observe(d time.Duration) {
	r.prune()
	r.samples = append(r.samples, latencySample{at: r.cfg.Now(), d: d})
}

func (r *sortShedder) p99() time.Duration {
	r.prune()
	n := len(r.samples)
	if n < r.cfg.minSamples {
		return 0
	}
	ds := make([]time.Duration, n)
	for i, smp := range r.samples {
		ds[i] = smp.d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := (n*99+99)/100 - 1
	if idx >= n {
		idx = n - 1
	}
	return ds[idx]
}

func (r *sortShedder) admits(c Class) bool {
	p99 := r.p99()
	if p99 <= 0 {
		return true
	}
	pressure := int(p99 / r.cfg.Target)
	if pressure > numShedRanks {
		pressure = numShedRanks
	}
	return shedRank(c) >= pressure
}

// TestShedderMatchesSortedWindow drives the shedder and the sort-based
// reference with the same seeded stream of latencies and clock
// advances and requires the same Admit decision for every class, and
// the same P99, after every step — through window fills, partial and
// total expiry, and latencies sitting exactly on the k×Target
// thresholds.
func TestShedderMatchesSortedWindow(t *testing.T) {
	const target = 50 * time.Millisecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		cfg := ShedderConfig{
			Target:     target,
			window:     time.Duration(1+rng.Intn(10)) * time.Second,
			minSamples: 1 + rng.Intn(30),
			RetryAfter: time.Second,
			Now:        clk.Now,
		}
		sh := NewShedder(cfg)
		ref := &sortShedder{cfg: cfg}
		// The latency regime shifts every so often so the p99 crosses
		// each threshold in both directions.
		scale := target
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 2:
				clk.Advance(cfg.window + time.Second) // empty the window
			case r < 30:
				clk.Advance(time.Duration(rng.Int63n(int64(cfg.window / 20))))
			case r < 33:
				scale = time.Duration(1+rng.Intn(5)) * target / 2
			}
			var d time.Duration
			switch r := rng.Intn(10); {
			case r == 0:
				d = time.Duration(rng.Intn(5)) * target // exactly on a threshold
			case r == 1:
				d = time.Duration(rng.Intn(5))*target - 1 // just under one
			default:
				d = time.Duration(rng.Int63n(int64(2 * scale)))
			}
			sh.Observe(d)
			ref.observe(d)
			if rng.Intn(4) == 0 {
				clk.Advance(time.Duration(rng.Int63n(int64(time.Second))))
			}
			for _, c := range Classes() {
				if got, want := sh.Admit(c) == nil, ref.admits(c); got != want {
					t.Fatalf("seed %d step %d: Admit(%v) admitted=%v, sorted window says %v (p99 %v, %d samples)",
						seed, step, c, got, want, ref.p99(), len(ref.samples))
				}
			}
			if got, want := sh.P99(), ref.p99(); got != want {
				t.Fatalf("seed %d step %d: P99 = %v, sorted window says %v", seed, step, got, want)
			}
		}
	}
}
