package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

// scriptedIngest serves a scripted sequence of statuses for the
// ingest route and records every attempt.
type scriptedIngest struct {
	t          *testing.T
	statuses   []int // consumed one per request; last repeats
	retryAfter int   // Retry-After seconds attached to 429/503
	attempts   int
	bodies     []sensing.IngestBody
}

func (s *scriptedIngest) handler(w http.ResponseWriter, r *http.Request) {
	var req sensing.IngestBody
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.t.Errorf("bad ingest body: %v", err)
	}
	s.bodies = append(s.bodies, req)
	i := s.attempts
	if i >= len(s.statuses) {
		i = len(s.statuses) - 1
	}
	status := s.statuses[i]
	s.attempts++
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter))
	}
	w.WriteHeader(status)
}

func TestHTTPTransportRetryAfter(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	batch := []*sensing.Observation{{
		UserID:      "u1",
		DeviceModel: "A",
		Mode:        sensing.Opportunistic,
		SPL:         50,
		SensedAt:    at,
	}}

	tests := []struct {
		name         string
		statuses     []int
		retryAfter   int
		maxRetry     time.Duration
		wantErr      bool
		wantAttempts int
		wantSleeps   []time.Duration
	}{
		{
			name:         "success first try no sleep",
			statuses:     []int{201},
			wantAttempts: 1,
			wantSleeps:   nil,
		},
		{
			name:         "429 then success retries once after hint",
			statuses:     []int{429, 201},
			retryAfter:   2,
			wantAttempts: 2,
			wantSleeps:   []time.Duration{2 * time.Second},
		},
		{
			name:         "sustained 429 retries exactly once then errors",
			statuses:     []int{429, 429},
			retryAfter:   1,
			wantErr:      true,
			wantAttempts: 2,
			wantSleeps:   []time.Duration{time.Second},
		},
		{
			name:         "hint capped by MaxRetryAfter",
			statuses:     []int{429, 201},
			retryAfter:   3600,
			maxRetry:     5 * time.Second,
			wantAttempts: 2,
			wantSleeps:   []time.Duration{5 * time.Second},
		},
		{
			name:         "503 not retried by the transport",
			statuses:     []int{503},
			retryAfter:   1,
			wantErr:      true,
			wantAttempts: 1,
			wantSleeps:   nil,
		},
		{
			name:         "413 surfaces immediately",
			statuses:     []int{413},
			wantErr:      true,
			wantAttempts: 1,
			wantSleeps:   nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			script := &scriptedIngest{t: t, statuses: tc.statuses, retryAfter: tc.retryAfter}
			srv := httptest.NewServer(http.HandlerFunc(script.handler))
			defer srv.Close()

			var sleeps []time.Duration
			tr := &HTTPTransport{
				BaseURL:       srv.URL,
				AppID:         "SC",
				ClientID:      "phone-1",
				Sleep:         func(d time.Duration) { sleeps = append(sleeps, d) },
				MaxRetryAfter: tc.maxRetry,
			}
			err := tr.Send(batch, at)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Send error = %v, wantErr %v", err, tc.wantErr)
			}
			if script.attempts != tc.wantAttempts {
				t.Fatalf("attempts = %d, want %d", script.attempts, tc.wantAttempts)
			}
			if len(sleeps) != len(tc.wantSleeps) {
				t.Fatalf("sleeps = %v, want %v", sleeps, tc.wantSleeps)
			}
			for i := range sleeps {
				if sleeps[i] != tc.wantSleeps[i] {
					t.Fatalf("sleep %d = %v, want %v", i, sleeps[i], tc.wantSleeps[i])
				}
			}
			for _, b := range script.bodies {
				if b.ClientID != "phone-1" || len(b.Observations) != 1 {
					t.Fatalf("upload body = %+v", b)
				}
			}
		})
	}
}

// TestHTTPTransportEndToEnd rides a real guarded REST server: the
// first upload lands, the second is throttled by the per-device
// bucket, honored and retried within the transport.
func TestHTTPTransportEndToEnd(t *testing.T) {
	// The end-to-end variant lives in the goflow package tests
	// (admission + metrics); here we only check the uploader contract:
	// a transport error keeps the batch queued.
	script := &scriptedIngest{t: t, statuses: []int{429, 429}, retryAfter: 1}
	srv := httptest.NewServer(http.HandlerFunc(script.handler))
	defer srv.Close()
	tr := &HTTPTransport{
		BaseURL:  srv.URL,
		AppID:    "SC",
		ClientID: "phone-1",
		Sleep:    func(time.Duration) {},
	}
	cfg := testConfig(1)
	up, err := NewUploader(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	if err := up.Record(testObs(at)); err != nil {
		t.Fatal(err)
	}
	if _, err := up.Flush(at, true); err == nil {
		t.Fatal("flush through a throttled transport must surface the error")
	}
	if len(up.queue) != 1 {
		t.Fatalf("pending after failed flush = %d, want 1 (batch kept)", len(up.queue))
	}
}
