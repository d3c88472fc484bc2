package guard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by the guard tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestClassString(t *testing.T) {
	want := map[Class]string{ClassIngest: "ingest", ClassQuery: "query", ClassAnalytics: "analytics", Class(9): "unknown"}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, s)
		}
	}
	if n := len(Classes()); n != numClasses {
		t.Fatalf("Classes() returned %d classes, want %d", n, numClasses)
	}
}

func TestRejectionUnwrapAndHint(t *testing.T) {
	err := Reject(ErrRateLimited, 3*time.Second)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("errors.Is(err, ErrRateLimited) = false")
	}
	if got := RetryAfterHint(err); got != 3*time.Second {
		t.Fatalf("RetryAfterHint = %v, want 3s", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfterHint(plain) = %v, want 0", got)
	}
}

func TestRateLimiterBurstAndRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewRateLimiter(RateLimiterConfig{Rate: 10, Burst: 3, Now: clk.Now})

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("dev-1"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.Allow("dev-1")
	if ok {
		t.Fatal("4th back-to-back request admitted, want rejection")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10 tokens/s", retry)
	}

	// Another key is unaffected.
	if ok, _ := l.Allow("dev-2"); !ok {
		t.Fatal("independent key rejected")
	}

	// One token refills after 100ms at 10/s.
	clk.Advance(100 * time.Millisecond)
	if ok, _ := l.Allow("dev-1"); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.Allow("dev-1"); ok {
		t.Fatal("second request after single-token refill admitted")
	}
}

func TestRateLimiterUnlimitedAndEviction(t *testing.T) {
	clk := newFakeClock()
	if ok, _ := NewRateLimiter(RateLimiterConfig{Rate: 0}).Allow("x"); !ok {
		t.Fatal("Rate=0 should admit everything")
	}

	l := NewRateLimiter(RateLimiterConfig{Rate: 1, Burst: 1, maxKeys: 2, Now: clk.Now})
	l.Allow("a")
	clk.Advance(time.Second)
	l.Allow("b")
	clk.Advance(time.Second)
	l.Allow("c") // evicts "a", the stalest
	if got := l.keys(); got != 2 {
		t.Fatalf("Keys = %d, want 2 after eviction", got)
	}
	// "a" was evicted, so it gets a fresh full bucket.
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("evicted key should restart with a full bucket")
	}
}

func TestSemaphoreTryAcquireAndQueueBound(t *testing.T) {
	s := NewSemaphore(1, 1)
	if !s.tryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.tryAcquire() {
		t.Fatal("second TryAcquire succeeded with limit 1")
	}

	// One waiter queues; a second is refused immediately.
	acquired := make(chan error, 1)
	go func() { acquired <- s.Acquire(context.Background()) }()
	waitForWaiters(t, s, 1)

	if err := s.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Acquire = %v, want ErrOverloaded", err)
	}

	s.Release() // hands the slot to the queued waiter
	if err := <-acquired; err != nil {
		t.Fatalf("queued Acquire = %v", err)
	}
	if got := s.InUse(); got != 1 {
		t.Fatalf("InUse = %d, want 1", got)
	}
	s.Release()
	if got := s.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}
}

func TestSemaphoreAcquireContextCancel(t *testing.T) {
	s := NewSemaphore(1, 4)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Acquire(ctx) }()
	waitForWaiters(t, s, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	if got := s.waiting(); got != 0 {
		t.Fatalf("Waiting after cancel = %d, want 0", got)
	}
	// The held slot is still usable and releasable.
	s.Release()
	if !s.tryAcquire() {
		t.Fatal("slot lost after cancelled waiter")
	}
}

func TestSemaphoreFIFOHandoff(t *testing.T) {
	s := NewSemaphore(1, 8)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			if err := s.Acquire(context.Background()); err == nil {
				order <- i
				s.Release()
			}
		}()
		waitForWaiters(t, s, i) // serialise enqueue order
	}
	s.Release()
	if first := <-order; first != 1 {
		t.Fatalf("first handoff went to waiter %d, want 1", first)
	}
	if second := <-order; second != 2 {
		t.Fatalf("second handoff went to waiter %d, want 2", second)
	}
}

func waitForWaiters(t *testing.T, s *Semaphore, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued waiters (have %d)", n, s.waiting())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShedderDegradesByClass(t *testing.T) {
	clk := newFakeClock()
	sh := NewShedder(ShedderConfig{
		Target:     50 * time.Millisecond,
		window:     10 * time.Second,
		minSamples: 5,
		RetryAfter: 2 * time.Second,
		Now:        clk.Now,
	})

	// Below minSamples: everything admitted regardless of latency.
	sh.Observe(time.Second)
	if err := sh.Admit(ClassAnalytics); err != nil {
		t.Fatalf("Admit below minSamples = %v, want nil", err)
	}

	// Healthy latencies: all classes admitted.
	clk.Advance(11 * time.Second) // slide the 1s outlier out of the window
	for i := 0; i < 30; i++ {
		sh.Observe(10 * time.Millisecond)
	}
	for _, c := range Classes() {
		if err := sh.Admit(c); err != nil {
			t.Fatalf("healthy Admit(%v) = %v", c, err)
		}
	}

	// p99 past 1x target: analytics shed, query and ingest admitted.
	clk.Advance(11 * time.Second) // clear the window
	for i := 0; i < 30; i++ {
		sh.Observe(75 * time.Millisecond)
	}
	if err := sh.Admit(ClassAnalytics); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("1x-pressure Admit(analytics) = %v, want ErrOverloaded", err)
	} else if got := RetryAfterHint(err); got != 2*time.Second {
		t.Fatalf("shed RetryAfter = %v, want 2s", got)
	}
	if err := sh.Admit(ClassQuery); err != nil {
		t.Fatalf("1x-pressure Admit(query) = %v, want nil", err)
	}
	if err := sh.Admit(ClassIngest); err != nil {
		t.Fatalf("1x-pressure Admit(ingest) = %v, want nil", err)
	}

	// p99 past 2x target: queries also shed, ingest still admitted.
	clk.Advance(11 * time.Second)
	for i := 0; i < 30; i++ {
		sh.Observe(120 * time.Millisecond)
	}
	if err := sh.Admit(ClassQuery); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("2x-pressure Admit(query) = %v, want ErrOverloaded", err)
	}
	if err := sh.Admit(ClassIngest); err != nil {
		t.Fatalf("2x-pressure Admit(ingest) = %v, want nil (ingest shed last)", err)
	}

	// p99 past 3x target: even ingest is shed.
	clk.Advance(11 * time.Second)
	for i := 0; i < 30; i++ {
		sh.Observe(200 * time.Millisecond)
	}
	if err := sh.Admit(ClassIngest); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("3x-pressure Admit(ingest) = %v, want ErrOverloaded", err)
	}

	// Recovery: the window slides past the burst and all classes return.
	clk.Advance(11 * time.Second)
	for i := 0; i < 30; i++ {
		sh.Observe(5 * time.Millisecond)
	}
	for _, c := range Classes() {
		if err := sh.Admit(c); err != nil {
			t.Fatalf("post-recovery Admit(%v) = %v", c, err)
		}
	}
}

func TestShedderP99(t *testing.T) {
	clk := newFakeClock()
	sh := NewShedder(ShedderConfig{Target: time.Millisecond, minSamples: 10, Now: clk.Now})
	for i := 1; i <= 100; i++ {
		sh.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := sh.P99(); got != 99*time.Millisecond {
		t.Fatalf("P99 of 1..100ms = %v, want 99ms", got)
	}
}

func TestShedderDisabled(t *testing.T) {
	sh := NewShedder(ShedderConfig{})
	sh.Observe(time.Hour)
	if err := sh.Admit(ClassAnalytics); err != nil {
		t.Fatalf("disabled shedder Admit = %v, want nil", err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          time.Second,
		Now:              clk.Now,
	})

	if b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	// Two failures then a success: counter resets, stays closed.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped before threshold")
	}
	// Third consecutive failure trips it.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at threshold")
	}
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Allow = %v, want ErrBreakerOpen", err)
	}
	if got := RetryAfterHint(err); got != time.Second {
		t.Fatalf("open RetryAfter = %v, want 1s", got)
	}

	// After the cool-down: half-open, one probe admitted, second refused.
	clk.Advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("breaker not half-open after its cool-down")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe Allow = %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second half-open Allow = %v, want ErrBreakerOpen", err)
	}
	// Probe fails: re-open.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open breaker")
	}

	// Next window: probe succeeds, breaker re-closes.
	clk.Advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("re-opened breaker not half-open after its cool-down")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow = %v", err)
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close breaker")
	}
}

func TestBreakerSeededJitterDeterministic(t *testing.T) {
	trip := func(seed int64) []time.Duration {
		clk := newFakeClock()
		b := NewBreaker(BreakerConfig{
			FailureThreshold: 1,
			OpenFor:          time.Second,
			Jitter:           time.Second,
			Seed:             seed,
			Now:              clk.Now,
		})
		var cools []time.Duration
		for i := 0; i < 5; i++ {
			b.Record(false) // trip
			err := b.Allow()
			cools = append(cools, RetryAfterHint(err))
			clk.Advance(RetryAfterHint(err)) // cool down fully
			if e := b.Allow(); e != nil {    // half-open probe
				t.Fatalf("probe %d refused: %v", i, e)
			}
			b.Record(true) // re-close
		}
		return cools
	}

	a, b2 := trip(42), trip(42)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverged at trip %d: %v vs %v", i, a, b2)
		}
		if a[i] < time.Second || a[i] >= 2*time.Second {
			t.Fatalf("cool-down %v outside [OpenFor, OpenFor+Jitter)", a[i])
		}
	}
	c := trip(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestBreakerConcurrentSmoke(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := b.Allow(); err == nil {
					b.Record(j%3 != 0)
				}
			}
		}(i)
	}
	wg.Wait()
	b.State() // must not panic or deadlock
}

// keys returns the number of tracked keys.
func (l *RateLimiter) keys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// tryAcquire takes a slot without waiting. It returns false when all
// slots are busy.
func (s *Semaphore) tryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slots > 0 {
		s.slots--
		return true
	}
	return false
}

// waiting returns the current wait-queue length.
func (s *Semaphore) waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}
