package guard

import (
	"context"
	"sync"
)

// Semaphore limits concurrent work to a fixed number of slots with a
// bounded wait queue. Unlike a bare buffered channel it distinguishes
// "queue full — reject now" (the admission decision the paper calls
// for) from "queued — wait your turn", and it releases waiters in FIFO
// order so queries cannot starve behind a convoy.
type Semaphore struct {
	mu      sync.Mutex
	slots   int // free slots
	limit   int
	waiters []chan struct{} // FIFO; closed channel = slot granted
	maxWait int
}

// NewSemaphore builds a semaphore with limit concurrent slots and at
// most maxWait queued waiters. limit < 1 is raised to 1; maxWait < 0 is
// treated as 0 (no queueing: reject as soon as slots are exhausted).
func NewSemaphore(limit, maxWait int) *Semaphore {
	if limit < 1 {
		limit = 1
	}
	if maxWait < 0 {
		maxWait = 0
	}
	return &Semaphore{slots: limit, limit: limit, maxWait: maxWait}
}

// Acquire takes a slot, queueing up behind earlier waiters if none is
// free. It returns ErrOverloaded immediately when the wait queue is
// full, or ctx.Err() if the context ends while queued.
func (s *Semaphore) Acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.slots > 0 {
		s.slots--
		s.mu.Unlock()
		return nil
	}
	if len(s.waiters) >= s.maxWait {
		s.mu.Unlock()
		return ErrOverloaded
	}
	ready := make(chan struct{})
	s.waiters = append(s.waiters, ready)
	s.mu.Unlock()

	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		// The grant may have raced the cancellation: if ready is
		// already closed we own a slot and must pass it on.
		select {
		case <-ready:
			s.releaseLocked()
			s.mu.Unlock()
			return ctx.Err()
		default:
		}
		for i, w := range s.waiters {
			if w == ready {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns a slot, handing it to the oldest waiter if any.
func (s *Semaphore) Release() {
	s.mu.Lock()
	s.releaseLocked()
	s.mu.Unlock()
}

func (s *Semaphore) releaseLocked() {
	if len(s.waiters) > 0 {
		ready := s.waiters[0]
		s.waiters = s.waiters[1:]
		close(ready)
		return
	}
	if s.slots < s.limit {
		s.slots++
	}
}

// InUse returns the number of occupied slots (for gauges).
func (s *Semaphore) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit - s.slots
}
