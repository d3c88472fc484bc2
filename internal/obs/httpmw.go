package obs

import (
	"net/http"
	"strconv"
)

// HTTP instrumentation middleware. The route label MUST be normalized
// (e.g. "GET /v1/apps/{app}/observations", never the raw URL):
// under a million-user load raw paths explode label cardinality and
// with it scrape size and registry memory. NormalizeByMux derives the
// label from the mux's matched pattern, which is bounded by the number
// of registered routes.

// statusRecorder captures the response status and size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// Flush forwards streaming flushes (the live SSE stream).
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline and full-duplex controls.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// statusClass folds a status code into "2xx".."5xx".
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// HTTPMetrics holds the request-level metric families recorded by
// InstrumentHandler.
type HTTPMetrics struct {
	requests *CounterVec   // route, class
	duration *HistogramVec // route
	respSize *CounterVec   // route
	inFlight *Gauge
}

// NewHTTPMetrics registers the HTTP server families on reg.
func NewHTTPMetrics(reg *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec("http_requests_total",
			"HTTP requests by normalized route and status class.", "route", "class"),
		duration: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request latency by normalized route.", nil, "route"),
		respSize: reg.CounterVec("http_response_bytes_total",
			"HTTP response body bytes by normalized route.", "route"),
		inFlight: reg.Gauge("http_in_flight_requests",
			"HTTP requests currently being served."),
	}
}

// NormalizeByMux labels requests with the mux pattern that will serve
// them (e.g. "GET /v1/apps/{app}/observations"); unmatched requests
// collapse into one "unmatched" label.
func NormalizeByMux(mux *http.ServeMux) func(*http.Request) string {
	return func(r *http.Request) string {
		_, pattern := mux.Handler(r)
		if pattern == "" {
			return "unmatched"
		}
		return pattern
	}
}

// InstrumentHandler wraps next, recording request counts, status
// classes, response bytes and latency histograms per normalized route.
func InstrumentHandler(m *HTTPMetrics, normalize func(*http.Request) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := normalize(r)
		m.inFlight.Inc()
		timer := m.duration.With(route).Start()
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r)
		timer.ObserveDuration()
		m.inFlight.Dec()
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		m.requests.With(route, statusClass(sr.status)).Inc()
		m.respSize.With(route).Add(uint64(sr.bytes))
	})
}
