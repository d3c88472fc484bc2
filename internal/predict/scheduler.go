package predict

import (
	"context"
	"sync"
	"time"
)

// Scheduler runs whole-city forecast sweeps in the background and
// hands each sweep's output to an announce callback (the server wires
// that to broker publishes so live subscribers get pushed forecast
// updates). The sweep *cadence* is a wall ticker — a background job
// has to be driven by something — but every forecast's asOf comes from
// the forecaster's injected clock, so a simulated deployment announces
// simulated-time forecasts and deterministic experiments skip Start
// entirely and drive RunOnce themselves.
type Scheduler struct {
	f        *Forecaster
	interval time.Duration
	announce func(map[string]Forecast)

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewScheduler builds a scheduler sweeping every interval (default
// 1m). announce may be nil.
func NewScheduler(f *Forecaster, interval time.Duration, announce func(map[string]Forecast)) *Scheduler {
	if interval <= 0 {
		interval = time.Minute
	}
	return &Scheduler{f: f, interval: interval, announce: announce}
}

// Start launches the background sweep loop. It returns immediately;
// the first sweep runs after one interval.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

// Stop halts the loop and waits for an in-flight sweep to finish.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Scheduler) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.interval)
			_, _ = s.RunOnce(ctx)
			cancel()
		}
	}
}

// RunOnce performs one sweep: forecast every warm zone and announce
// the result. Safe to call concurrently with the loop and
// directly from experiment drivers.
func (s *Scheduler) RunOnce(ctx context.Context) (map[string]Forecast, error) {
	fcs, err := s.f.Sweep(ctx)
	if err != nil {
		return nil, err
	}
	if s.announce != nil && len(fcs) > 0 {
		s.announce(fcs)
	}
	return fcs, nil
}
