package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockTracksSystemTime(t *testing.T) {
	before := time.Now()
	got := Real().Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real().Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSimAdvance(t *testing.T) {
	start := time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)
	s := NewSim(start)
	if got := s.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
	next := s.Advance(5 * time.Minute)
	if want := start.Add(5 * time.Minute); !next.Equal(want) {
		t.Fatalf("Advance() = %v, want %v", next, want)
	}
	if !s.Now().Equal(next) {
		t.Fatal("Now() must reflect the advance")
	}
}

func TestSimAdvanceNegativeIgnored(t *testing.T) {
	start := time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)
	s := NewSim(start)
	got := s.Advance(-time.Hour)
	if !got.Equal(start) {
		t.Fatalf("negative advance moved the clock to %v", got)
	}
}

func TestSimConcurrentAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Advance(time.Second)
		}()
	}
	wg.Wait()
	if want := time.Unix(50, 0); !s.Now().Equal(want) {
		t.Fatalf("after 50 concurrent 1s advances Now() = %v, want %v", s.Now(), want)
	}
}
