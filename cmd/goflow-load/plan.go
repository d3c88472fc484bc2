package main

import (
	"math/rand"
	"sort"
	"time"

	"github.com/urbancivics/goflow/internal/simclock"
)

// opKind is what a load worker does when an event comes due.
type opKind uint8

const (
	opFlush opKind = iota // one device emits its buffered batch over the broker
	opProbe               // one tagged observation into the reserved probe zone
	opPost                // one device uploads a body over REST
)

// event is one entry of the precomputed schedule. All devices share the
// one queue; a worker walks its own slice of it in due order, so the
// generator costs one goroutine per connection, not one per device.
type event struct {
	// due is the offset from the timed window's origin; warm-up events
	// carry negative offsets and are executed but not recorded.
	due    time.Duration
	kind   opKind
	device int // index into the fleet
	// first and n select the observations this event carries.
	first, n int
}

// arrivals draws Poisson arrival offsets at rate per second over
// [from, to): independent devices flushing on their own clocks add up
// to exponential gaps, and an open loop must not slow when the server
// does.
func arrivals(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	var out []time.Duration
	t := float64(from)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if time.Duration(t) >= to {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// periodic returns offsets every step over [from, to), phase-aligned to
// the window origin so the same probes fall in every run's window.
func periodic(step, from, to time.Duration) []time.Duration {
	var out []time.Duration
	start := from - from%step
	if start < from {
		start += step
	}
	for t := start; t < to; t += step {
		out = append(out, t)
	}
	return out
}

// mergeEvents orders events by due time; ties keep generation order so
// equal seeds give equal schedules.
func mergeEvents(lists ...[]event) []event {
	var all []event
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

// pacer releases events at their due instants and accounts for how
// late the generator ran. The clock is injected so tests drive it with
// simclock.Sim and no real sleeps.
type pacer struct {
	clock simclock.Clock
	sleep func(time.Duration)
	t0    time.Time
	// late collects, for every recorded event the worker was idle for,
	// how long after its due instant the timer released it: the
	// generator's own lateness, which voids a run when it grows.
	late []time.Duration
	// blocked counts recorded events that came due while the worker's
	// previous operation was still in flight. That wait is the server's
	// doing, belongs in the latency (which is timed from due) and is not
	// held against the generator.
	blocked int
}

func newPacer(clock simclock.Clock, sleep func(time.Duration), t0 time.Time) *pacer {
	return &pacer{clock: clock, sleep: sleep, t0: t0}
}

// run executes events in order. do receives the event and its absolute
// due instant; record says whether the event lies in the timed window.
func (p *pacer) run(events []event, do func(ev event, due time.Time, record bool)) {
	for _, ev := range events {
		due := p.t0.Add(ev.due)
		record := ev.due >= 0
		if d := due.Sub(p.clock.Now()); d > 0 {
			p.sleep(d)
			if record {
				p.late = append(p.late, max(0, p.clock.Now().Sub(due)))
			}
		} else if record {
			p.blocked++
		}
		do(ev, due, record)
	}
}
