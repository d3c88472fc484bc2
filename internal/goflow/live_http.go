package goflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
)

// HTTP surface of the live layer:
//
//	GET /v1/live/sse     Server-Sent Events push stream
//	GET /v1/live/latest  latest-per-zone cache snapshot
//
// The stream accepts either repeated pattern=<topic pattern> (raw
// broker syntax, * = one word, # = any tail), or the structured app=,
// datatype=, zone= trio compiled onto the canonical
// "<app>.<client>.<datatype>.<zone>" key shape.
//
// Stream handlers do NOT go through Admission.Guard: a stream holds
// its connection for minutes, and parking it in the per-request
// semaphore would let a handful of dashboards starve the query
// classes. They use AdmitLive (draining + shedder only); concurrency
// is bounded by the hub's MaxSockets and slow consumers by the
// per-socket send budget.

// livePatternsFromRequest compiles the selection parameters.
func livePatternsFromRequest(r *http.Request) ([]string, error) {
	qv := r.URL.Query()
	return livePatterns(qv["pattern"], qv.Get("app"), qv.Get("datatype"), qv.Get("zone"))
}

// liveSubscribe runs admission and attaches a hub subscription,
// writing the HTTP error itself when it fails.
func (h *apiHandler) liveSubscribe(w http.ResponseWriter, r *http.Request) (sub *mq.LiveSub, ok bool) {
	if err := h.server.Guard.AdmitLive(); err != nil {
		rejectHTTP(w, err, time.Second)
		return nil, false
	}
	patterns, err := livePatternsFromRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return nil, false
	}
	sub, err = h.server.Live.Subscribe(patterns)
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrLiveLimit) {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return nil, false
	}
	return sub, true
}

// liveSSE streams matching events as Server-Sent Events — the
// curl-able transport: curl -N 'http://host/v1/live/sse?zone=FR75013'.
func (h *apiHandler) liveSSE(w http.ResponseWriter, r *http.Request) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported on this connection"})
		return
	}
	hub := h.server.Live
	sub, ok := h.liveSubscribe(w, r)
	if !ok {
		return
	}
	defer hub.Release(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	rc := http.NewResponseController(w)
	timeout := liveWriteTimeout(hub)
	ctx := r.Context()
	for {
		select {
		case m := <-sub.C():
			data, merr := json.Marshal(liveEventFromMessage(&m))
			if merr != nil {
				continue
			}
			_ = rc.SetWriteDeadline(time.Now().Add(timeout))
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-sub.Done():
			reason := "draining"
			if sub.Shed() {
				reason = "shed"
			}
			_ = rc.SetWriteDeadline(time.Now().Add(timeout))
			fmt.Fprintf(w, "event: end\ndata: {\"reason\":%q}\n\n", reason)
			fl.Flush()
			return
		case <-ctx.Done():
			return
		}
	}
}

// liveWriteTimeout bounds each event write: the send budget's grace
// when one is configured, a conservative default otherwise. A peer
// that cannot absorb an event within the time we would tolerate a
// full mailbox has no claim on the writer.
func liveWriteTimeout(hub *LiveHub) time.Duration {
	if t := hub.Config().SendBudget; t > 0 {
		return t
	}
	return 10 * time.Second
}

// liveLatest serves the latest-per-zone cache: the whole map, or one
// zone with ?zone=.
func (h *apiHandler) liveLatest(w http.ResponseWriter, r *http.Request) {
	cache := h.server.LiveCache
	if zone := r.URL.Query().Get("zone"); zone != "" {
		e, ok := cache.Zone(zone)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no observations for zone " + zone})
			return
		}
		writeJSON(w, http.StatusOK, e)
		return
	}
	entries := cache.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(entries),
		"zones": entries,
	})
}
