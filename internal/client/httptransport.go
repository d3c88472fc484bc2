package client

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

// HTTPTransport uploads observation batches over the REST ingest
// endpoint (POST /v1/apps/{app}/observations) — the fallback for
// clients that cannot hold a broker connection. It cooperates with
// the server's admission control: a 429 (per-device rate limit) is
// retried exactly once after honoring the Retry-After hint, so a
// briefly throttled phone delivers its batch on the next token
// instead of dropping it, while a persistently throttled one surfaces
// the error to the uploader, which keeps the batch queued for the
// next flush cycle.
type HTTPTransport struct {
	// BaseURL is the server root, e.g. "http://host:7680".
	BaseURL string
	// AppID and ClientID identify the upload.
	AppID    string
	ClientID string
	// Client performs the requests; nil uses http.DefaultClient.
	Client *http.Client
	// Sleep waits out Retry-After hints; nil uses time.Sleep. Tests
	// inject a fake to keep retry timing deterministic.
	Sleep func(d time.Duration)
	// MaxRetryAfter caps how long a Retry-After hint is honored
	// (0 = 30s): a server asking for more than that effectively says
	// "come back next flush cycle".
	MaxRetryAfter time.Duration
}

var _ Transport = (*HTTPTransport)(nil)

// DefaultMaxRetryAfter caps honored Retry-After hints.
const DefaultMaxRetryAfter = 30 * time.Second

// Send implements Transport: one POST per batch, with a single
// Retry-After-honoring retry on 429.
func (t *HTTPTransport) Send(batch []*sensing.Observation, at time.Time) error {
	body, err := (&sensing.IngestBody{ClientID: t.ClientID, Observations: batch}).AppendJSON(nil)
	if err != nil {
		return fmt.Errorf("encode batch: %w", err)
	}
	status, retryAfter, err := t.post(body)
	if err != nil {
		return err
	}
	if status == http.StatusTooManyRequests {
		t.sleep(retryAfter)
		status, _, err = t.post(body)
		if err != nil {
			return err
		}
	}
	if status < 200 || status >= 300 {
		return fmt.Errorf("ingest upload: server returned %d", status)
	}
	return nil
}

// post performs one upload attempt and returns the status plus the
// parsed Retry-After hint.
func (t *HTTPTransport) post(body []byte) (status int, retryAfter time.Duration, err error) {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := t.BaseURL + "/v1/apps/" + t.AppID + "/observations"
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Device-ID", t.ClientID)
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("ingest upload: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	if secs, parseErr := strconv.Atoi(resp.Header.Get("Retry-After")); parseErr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, nil
}

// sleep honors a Retry-After hint, bounded by MaxRetryAfter.
func (t *HTTPTransport) sleep(d time.Duration) {
	if d <= 0 {
		d = time.Second
	}
	max := t.MaxRetryAfter
	if max == 0 {
		max = DefaultMaxRetryAfter
	}
	if d > max {
		d = max
	}
	if t.Sleep != nil {
		t.Sleep(d)
		return
	}
	time.Sleep(d)
}
