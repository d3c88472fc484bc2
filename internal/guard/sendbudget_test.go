package guard

import (
	"testing"
	"time"
)

// The budget tests share the fake clock from guard_test.go: no sleeps,
// time only moves when advanced.

func TestSendBudgetShedsAfterGrace(t *testing.T) {
	clk := newFakeClock()
	b := NewSendBudget(2*time.Second, clk.Now)

	if b.Full() {
		t.Fatal("first full event exhausted a 2s budget immediately")
	}
	clk.Advance(time.Second)
	if b.Full() {
		t.Fatal("budget exhausted after 1s of a 2s grace")
	}
	clk.Advance(time.Second)
	if !b.Full() {
		t.Fatal("budget not exhausted after a full 2s streak")
	}
}

func TestSendBudgetSentResetsStreak(t *testing.T) {
	clk := newFakeClock()
	b := NewSendBudget(2*time.Second, clk.Now)

	if b.Full() {
		t.Fatal("budget exhausted on first full event")
	}
	clk.Advance(1900 * time.Millisecond)
	b.Sent() // the consumer drained: streak over
	clk.Advance(200 * time.Millisecond)
	if b.Full() {
		t.Fatal("budget exhausted across a Sent reset")
	}
	clk.Advance(2 * time.Second)
	if !b.Full() {
		t.Fatal("budget not exhausted after a fresh 2s streak")
	}
}

func TestSendBudgetZeroGraceShedsImmediately(t *testing.T) {
	clk := newFakeClock()
	b := NewSendBudget(0, clk.Now)
	if !b.Full() {
		t.Fatal("zero-grace budget tolerated a full queue")
	}
}

func TestLiveClassSharesBottomShedRank(t *testing.T) {
	clk := newFakeClock()
	sh := NewShedder(ShedderConfig{
		Target:     50 * time.Millisecond,
		minSamples: 5,
		Now:        clk.Now,
	})
	for i := 0; i < 30; i++ {
		sh.Observe(75 * time.Millisecond) // 1x pressure
	}
	if err := sh.Admit(ClassLive); err == nil {
		t.Fatal("1x-pressure Admit(live) = nil, want shed with analytics")
	}
	if err := sh.Admit(ClassQuery); err != nil {
		t.Fatalf("1x-pressure Admit(query) = %v, want admitted", err)
	}
	if err := sh.Admit(ClassIngest); err != nil {
		t.Fatalf("1x-pressure Admit(ingest) = %v, want admitted", err)
	}
}
