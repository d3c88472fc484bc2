package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// opTimeout is how long any single operation may take before it counts
// as failed.
const opTimeout = 2 * time.Second

// httpConn is one load worker's HTTP side: a keep-alive client capped
// at a single connection, so "two workers" means two sockets.
type httpConn struct {
	base   string
	client *http.Client
	// traceID, when non-zero, is sent as the X-Trace-ID of the request
	// in flight. A worker has one request in flight at a time, so a
	// field does for what would otherwise thread through every call.
	traceID int64
}

func newHTTPConn(base string) *httpConn {
	c := &httpConn{base: base}
	c.client = &http.Client{
		Timeout: opTimeout,
		Transport: traceRoundTripper{conn: c, next: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
	}
	return c
}

// traceRoundTripper stamps the connection's current trace id on the
// outgoing request. With tracing off the id is always zero and requests
// pass through untouched.
type traceRoundTripper struct {
	conn *httpConn
	next *http.Transport
}

func (rt traceRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := rt.conn.traceID; id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(traceHeader, strconv.FormatInt(id, 10))
	}
	return rt.next.RoundTrip(r)
}

// traced runs fn — one request — inside a client-side span of the given
// trace, when tracing is on.
func (c *httpConn) traced(tr *tracer, name string, id int64, fn func()) {
	if tr == nil {
		fn()
		return
	}
	c.traceID = id
	idx := tr.begin(name, id)
	fn()
	tr.end(idx)
	c.traceID = 0
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// do performs one request and reads the whole body, which is when a
// caller has its answer.
func (c *httpConn) do(method, path string, header map[string]string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// getJSON is do(GET) that requires a 200 and decodes the body into v.
func (c *httpConn) getJSON(path string, v any) error {
	status, data, err := c.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// login registers a client of the SoundCity app and records the
// credentials and private exchange it was issued.
func (c *httpConn) login(d *simDevice) error {
	status, data, err := c.do(http.MethodPost, "/v1/apps/SC/login", nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("login: status %d: %s", status, bytes.TrimSpace(data))
	}
	var resp struct {
		ID       string `json:"id"`
		Exchange string `json:"exchange"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("login: %w", err)
	}
	d.clientID, d.exchange = resp.ID, resp.Exchange
	return nil
}

// scrape fetches and parses /metrics, reporting how long the scrape
// took.
func (c *httpConn) scrape() (promSample, time.Duration, error) {
	start := time.Now()
	status, data, err := c.do(http.MethodGet, "/metrics", nil, nil)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseProm(bytes.NewReader(data)), took, nil
}
