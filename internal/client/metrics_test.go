package client

import (
	"errors"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

type flakyTransport struct {
	fail int // fail this many sends, then succeed
	sent int
}

func (f *flakyTransport) Send(batch []*sensing.Observation, at time.Time) error {
	if f.fail > 0 {
		f.fail--
		return errors.New("no route")
	}
	f.sent += len(batch)
	return nil
}

func TestUploaderHooks(t *testing.T) {
	var recorded, attempts, sentBatches, sentObs, failed, deferred, retried int
	tr := &flakyTransport{fail: 1}
	u, err := NewUploader(Config{
		ClientID: "c1", AppID: "SC", Version: "1.3",
		BufferSize: 2, DeferToWiFi: true, MaxDefer: time.Hour,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	u.SetHooks(Hooks{
		Recorded: func() { recorded++ },
		Attempt:  func() { attempts++ },
		Sent:     func(batch int) { sentBatches++; sentObs += batch },
		Failed:   func() { failed++ },
		Deferred: func() { deferred++ },
		Retried:  func() { retried++ },
	})

	now := time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC)
	if err := u.Record(testObs(now)); err != nil {
		t.Fatal(err)
	}
	if err := u.Record(testObs(now.Add(5 * time.Minute))); err != nil {
		t.Fatal(err)
	}
	// Attempt 1: cellular, deferred.
	if _, err := u.FlushOn(now.Add(10*time.Minute), true, BearerCellular); err != nil {
		t.Fatal(err)
	}
	// Attempt 2: WiFi, transport fails once.
	if _, err := u.FlushOn(now.Add(15*time.Minute), true, BearerWiFi); err == nil {
		t.Fatal("expected transport failure")
	}
	// Attempt 3: WiFi, succeeds with both observations.
	if n, err := u.FlushOn(now.Add(20*time.Minute), true, BearerWiFi); err != nil || n != 2 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	if recorded != 2 {
		t.Errorf("recorded = %d, want 2", recorded)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if deferred != 1 || failed != 1 {
		t.Errorf("deferred/failed = %d/%d, want 1/1", deferred, failed)
	}
	// Attempts 2 and 3 both followed a failed-or-deferred attempt.
	if retried != 2 {
		t.Errorf("retried = %d, want 2", retried)
	}
	if sentBatches != 1 || sentObs != 2 {
		t.Errorf("sent = %d batches / %d obs, want 1/2", sentBatches, sentObs)
	}

	// Hook counts agree with the uploader's own stats.
	st := u.Stats()
	if st.Recorded != recorded || st.Sent != sentObs ||
		st.Deferred != deferred || st.FailedFlushes != failed {
		t.Errorf("stats %+v disagree with hooks", st)
	}
}
