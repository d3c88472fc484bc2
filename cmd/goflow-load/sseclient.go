package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// sseClient reads the live feed as Server-Sent Events: one connection,
// held open, one "data: <json>" line per event.
//
// The issue names the WebSocket endpoint for this worker. In the real
// binary /v1/live/ws answers 500: the obs HTTP middleware that
// goflow.NewInstrumentedHTTPHandler installs wraps the ResponseWriter
// in a recorder that cannot be hijacked. This harness changes no server
// code, so the watcher reads the same hub over /v1/live/sse, which the
// middleware does carry; see bench/README.md.
type sseClient struct {
	cancel context.CancelFunc
	resp   *http.Response
	br     *bufio.Reader
}

func sseDial(base, path string) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// No client timeout: the response body is the stream.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("live stream refused: %s", resp.Status)
	}
	return &sseClient{cancel: cancel, resp: resp, br: bufio.NewReaderSize(resp.Body, 64*1024)}, nil
}

// next returns the payload of the next data line; other lines (blank
// separators, comments, named events) are skipped.
func (c *sseClient) next() ([]byte, error) {
	for {
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			return bytes.TrimRight(data, "\r\n"), nil
		}
	}
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}
