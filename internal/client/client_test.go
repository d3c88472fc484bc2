package client

import (
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
)

func testConfig(buffer int) Config {
	return Config{ClientID: "c1", AppID: "SC", Version: "1.3", BufferSize: buffer}
}

func testObs(at time.Time) *sensing.Observation {
	return &sensing.Observation{
		UserID:             "u1",
		DeviceModel:        "LGE NEXUS 5",
		Mode:               sensing.Opportunistic,
		SPL:                55,
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           at,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"no client id", func(c *Config) { c.ClientID = "" }, true},
		{"no app id", func(c *Config) { c.AppID = "" }, true},
		{"zero buffer", func(c *Config) { c.BufferSize = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(1)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewUploaderValidation(t *testing.T) {
	if _, err := NewUploader(testConfig(0), &RecordingTransport{}); err == nil {
		t.Fatal("bad config must fail")
	}
	if _, err := NewUploader(testConfig(1), nil); err == nil {
		t.Fatal("nil transport must fail")
	}
}

func TestRecordStampsVersionAndValidates(t *testing.T) {
	u, err := NewUploader(testConfig(1), &RecordingTransport{})
	if err != nil {
		t.Fatal(err)
	}
	o := testObs(time.Now())
	o.AppVersion = "stale"
	if err := u.Record(o); err != nil {
		t.Fatal(err)
	}
	if o.AppVersion != "1.3" {
		t.Fatalf("version = %q, want stamped 1.3", o.AppVersion)
	}
	bad := testObs(time.Now())
	bad.SPL = -1
	if err := u.Record(bad); err == nil {
		t.Fatal("invalid observation must be rejected")
	}
	if err := u.Record(nil); err == nil {
		t.Fatal("nil observation must be rejected")
	}
}

func TestUnbufferedFlushEachCycle(t *testing.T) {
	tr := &RecordingTransport{}
	u, err := NewUploader(testConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2016, 1, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := u.Record(testObs(now)); err != nil {
			t.Fatal(err)
		}
		sent, err := u.Flush(now, true)
		if err != nil || sent != 1 {
			t.Fatalf("flush %d: sent=%d err=%v", i, sent, err)
		}
		now = now.Add(5 * time.Minute)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("transport got %d records, want 3", len(tr.Records))
	}
	for _, r := range tr.Records {
		if r.Batch != 1 {
			t.Fatalf("unbuffered batch = %d, want 1", r.Batch)
		}
	}
}

func TestBufferedWaitsForThreshold(t *testing.T) {
	tr := &RecordingTransport{}
	u, err := NewUploader(testConfig(10), tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2016, 1, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		if err := u.Record(testObs(now)); err != nil {
			t.Fatal(err)
		}
		sent, err := u.Flush(now, true)
		if err != nil || sent != 0 {
			t.Fatalf("premature flush at %d: sent=%d err=%v", i, sent, err)
		}
		now = now.Add(5 * time.Minute)
	}
	if err := u.Record(testObs(now)); err != nil {
		t.Fatal(err)
	}
	sent, err := u.Flush(now, true)
	if err != nil || sent != 10 {
		t.Fatalf("threshold flush: sent=%d err=%v, want 10", sent, err)
	}
	if tr.Records[0].Batch != 10 {
		t.Fatalf("batch size = %d, want 10", tr.Records[0].Batch)
	}
}

func TestDisconnectedRetriesNextCycle(t *testing.T) {
	tr := &RecordingTransport{}
	u, err := NewUploader(testConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2016, 1, 1, 12, 0, 0, 0, time.UTC)
	if err := u.Record(testObs(now)); err != nil {
		t.Fatal(err)
	}
	// No network at emission: stays queued.
	sent, err := u.Flush(now, false)
	if err != nil || sent != 0 {
		t.Fatalf("offline flush: sent=%d err=%v", sent, err)
	}
	if len(u.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(u.queue))
	}
	// Next cycle records another measurement, then both go out.
	now = now.Add(5 * time.Minute)
	if err := u.Record(testObs(now)); err != nil {
		t.Fatal(err)
	}
	sent, err = u.Flush(now, true)
	if err != nil || sent != 2 {
		t.Fatalf("reconnect flush: sent=%d err=%v, want 2", sent, err)
	}
	st := u.Stats()
	if st.FailedFlushes != 1 || st.Sent != 2 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferedRetryPendingSendsPartial(t *testing.T) {
	// A failed emission marks the queue retry-pending: even a
	// sub-threshold queue goes out at the next opportunity.
	tr := &RecordingTransport{}
	u, err := NewUploader(testConfig(10), tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2016, 1, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if err := u.Record(testObs(now)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Minute)
	}
	if _, err := u.Flush(now, false); err != nil { // threshold hit but offline
		t.Fatal(err)
	}
	if err := u.Record(testObs(now)); err != nil { // 11th measurement
		t.Fatal(err)
	}
	sent, err := u.Flush(now, true)
	if err != nil || sent != 11 {
		t.Fatalf("retry flush: sent=%d err=%v, want 11", sent, err)
	}
}

func TestTransportFailureKeepsQueue(t *testing.T) {
	tr := &RecordingTransport{Fail: true}
	u, err := NewUploader(testConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := u.Record(testObs(now)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Flush(now, true); err == nil {
		t.Fatal("transport failure must surface")
	}
	if len(u.queue) != 1 {
		t.Fatal("failed send must keep the observation queued")
	}
	tr.Fail = false
	sent, err := u.Flush(now, true)
	if err != nil || sent != 1 {
		t.Fatalf("recovery flush: sent=%d err=%v", sent, err)
	}
}

func TestFlushEmptyQueueNoop(t *testing.T) {
	u, err := NewUploader(testConfig(1), &RecordingTransport{})
	if err != nil {
		t.Fatal(err)
	}
	sent, err := u.Flush(time.Now(), true)
	if err != nil || sent != 0 {
		t.Fatalf("empty flush: sent=%d err=%v", sent, err)
	}
}

func TestRoutingKey(t *testing.T) {
	if got := RoutingKey("SC", "mob1", "FR75013"); got != "SC.mob1.obs.FR75013" {
		t.Fatalf("RoutingKey = %q", got)
	}
	if got := RoutingKey("SC", "mob1", ""); got != "SC.mob1.obs.ZZ" {
		t.Fatalf("RoutingKey unlocalized = %q", got)
	}
}

func TestObservationWithLocationRecorded(t *testing.T) {
	tr := &RecordingTransport{}
	u, err := NewUploader(testConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	o := testObs(time.Now())
	o.Loc = &sensing.Location{Point: geo.Point{Lat: 48.85, Lon: 2.35}, AccuracyM: 10, Provider: sensing.ProviderGPS}
	if err := u.Record(o); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Flush(time.Now(), true); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 {
		t.Fatal("localized observation must be sent like any other")
	}
}
