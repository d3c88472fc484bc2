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

// TestUploaderHooks pins the uploader's counts across a deferred, a
// failed and a successful emission, read while the loop runs: Stats
// is the one place the uploader counts, and a metrics scrape reads it
// from another goroutine.
func TestUploaderHooks(t *testing.T) {
	tr := &flakyTransport{fail: 1}
	u, err := NewUploader(Config{
		ClientID: "c1", AppID: "SC", Version: "1.3",
		BufferSize: 2, DeferToWiFi: true, MaxDefer: time.Hour,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	scraped := make(chan Stats)
	go func() {
		var last Stats
		for {
			select {
			case <-stop:
				scraped <- last
				return
			default:
				last = u.Stats()
			}
		}
	}()

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
	close(stop)
	<-scraped

	want := Stats{Recorded: 2, Sent: 2, Batches: 1, FailedFlushes: 1, Deferred: 1}
	if st := u.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}
