package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/simclock"
)

func TestArrivalsAreAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		return arrivals(rand.New(rand.NewSource(seed)), 120, -2*time.Second, 15*time.Second)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 120/s over 17 s: 2040 expected, σ ≈ 45.
	if len(a) < 1800 || len(a) > 2300 {
		t.Errorf("%d arrivals, want about 2040", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if a[0] < -2*time.Second || a[len(a)-1] >= 15*time.Second {
		t.Errorf("arrivals outside [from, to): %v .. %v", a[0], a[len(a)-1])
	}
}

func TestPeriodicIsAlignedToTheWindowOrigin(t *testing.T) {
	got := periodic(15*time.Millisecond, -40*time.Millisecond, 40*time.Millisecond)
	want := []time.Duration{-30 * time.Millisecond, -15 * time.Millisecond, 0, 15 * time.Millisecond, 30 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("periodic = %v, want %v", got, want)
	}
}

func TestMergeEventsKeepsGenerationOrderOnTies(t *testing.T) {
	a := []event{{due: 1, device: 1}, {due: 3, device: 1}}
	b := []event{{due: 1, device: 2}, {due: 2, device: 2}}
	got := mergeEvents(a, b)
	order := []int{got[0].device, got[1].device, got[2].device, got[3].device}
	if !reflect.DeepEqual(order, []int{1, 2, 2, 1}) {
		t.Errorf("merge order by device = %v", order)
	}
}

// TestPacerAccountsLatenessAndBlocking drives the pacer on a simulated
// clock: the sleeper overshoots by a fixed 300 µs, and the second
// operation runs long enough to make the third one come due while the
// worker is still busy.
func TestPacerAccountsLatenessAndBlocking(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := simclock.NewSim(t0.Add(-time.Second))
	const overshoot = 300 * time.Microsecond
	pc := newPacer(sim, func(d time.Duration) { sim.Advance(d + overshoot) }, t0)

	events := []event{
		{due: -500 * time.Millisecond}, // warm-up: executed, not recorded
		{due: 10 * time.Millisecond},
		{due: 20 * time.Millisecond},
		{due: 25 * time.Millisecond}, // due while the previous op is in flight
		{due: 100 * time.Millisecond},
	}
	var released []time.Duration
	var recorded []bool
	pc.run(events, func(ev event, due time.Time, record bool) {
		released = append(released, sim.Now().Sub(t0))
		recorded = append(recorded, record)
		if ev.due == 20*time.Millisecond {
			sim.Advance(30 * time.Millisecond) // a slow reply
		}
	})

	if !reflect.DeepEqual(recorded, []bool{false, true, true, true, true}) {
		t.Errorf("recorded = %v", recorded)
	}
	wantLate := []time.Duration{overshoot, overshoot, overshoot}
	if !reflect.DeepEqual(pc.late, wantLate) {
		t.Errorf("lateness = %v, want %v (idle releases only)", pc.late, wantLate)
	}
	if pc.blocked != 1 {
		t.Errorf("blocked = %d, want 1", pc.blocked)
	}
	// The blocked event is released the moment the worker is free, not
	// at its due instant and not after another sleep.
	if want := 20*time.Millisecond + overshoot + 30*time.Millisecond; released[3] != want {
		t.Errorf("blocked event released at %v, want %v", released[3], want)
	}
}
