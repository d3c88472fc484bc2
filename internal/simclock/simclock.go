// Package simclock provides a virtual clock so that the 10-month
// SoundCity deployment can be simulated deterministically in seconds of
// wall time. Components take a Clock interface; production code passes
// Real(), simulations pass a *Sim that is advanced explicitly.
package simclock

import (
	"sync"
	"time"
)

// Clock abstracts time for components that need the current instant.
type Clock interface {
	// Now returns the current instant according to this clock.
	Now() time.Time
}

// realClock delegates to time.Now.
type realClock struct{}

var _ Clock = realClock{}

func (realClock) Now() time.Time { return time.Now() }

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

// Sim is a manually advanced clock. The zero value is not usable; use
// NewSim.
type Sim struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at the given instant.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current simulated instant.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves the clock forward by d and returns the new instant.
// Negative durations are ignored so time never goes backwards.
func (s *Sim) Advance(d time.Duration) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > 0 {
		s.now = s.now.Add(d)
	}
	return s.now
}
