package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP wal_records_total Records appended.
# TYPE wal_records_total counter
wal_records_total 100
wal_fsyncs_total 100
http_requests_total{route="GET /v1/healthz",class="2xx"} 3
http_requests_total{route="GET /metrics",class="2xx"} 1
wal_fsync_duration_seconds_sum 0.05
wal_fsync_duration_seconds_count 100
guard_rejected_total{class="ingest",reason="rate_limited"} 0
`

const scrapeAfter = `wal_records_total 1300
wal_fsyncs_total 1296
http_requests_total{route="GET /v1/healthz",class="2xx"} 3
http_requests_total{route="GET /metrics",class="2xx"} 2
http_requests_total{route="POST /v1/apps/{app}/observations",class="2xx"} 1050
wal_fsync_duration_seconds_sum 0.41
wal_fsync_duration_seconds_count 1296
guard_rejected_total{class="ingest",reason="rate_limited"} 2
guard_rejected_total{class="query",reason="overloaded"} 5
this line is noise
bad_value{a="b"} NaNope
`

func TestPromDeltaAcrossAWindow(t *testing.T) {
	before, after := parseProm(strings.NewReader(scrapeBefore)), parseProm(strings.NewReader(scrapeAfter))
	if len(before) != 7 {
		t.Fatalf("parsed %d series, want 7: %v", len(before), before)
	}
	d := after.delta(before)

	if got := d.sum("wal_records_total"); got != 1200 {
		t.Errorf("records delta = %v", got)
	}
	if got := per(d.sum("wal_records_total"), d.sum("wal_fsyncs_total")); math.Abs(got-1200.0/1196) > 1e-12 {
		t.Errorf("records per fsync = %v", got)
	}
	// A labelled series that first appears inside the window counts from 0;
	// label values with spaces must not split the line.
	if got := d.sum("http_requests_total"); got != 1051 {
		t.Errorf("requests delta = %v, want 1051", got)
	}
	if got := d.sum("http_requests_total", `route="GET /metrics"`); got != 1 {
		t.Errorf("/metrics requests delta = %v, want 1", got)
	}
	if got := d.sum("guard_rejected_total", `reason="rate_limited"`); got != 2 {
		t.Errorf("rate-limited delta = %v, want 2", got)
	}
	if got := d.sum("guard_rejected_total"); got != 7 {
		t.Errorf("all rejections delta = %v, want 7", got)
	}
	if got := d.histMean("wal_fsync_duration_seconds"); math.Abs(got-0.36/1196) > 1e-15 {
		t.Errorf("mean fsync = %v", got)
	}
	if got := d.histMean("no_such_histogram"); got != 0 {
		t.Errorf("empty histogram mean = %v", got)
	}
	if _, ok := after["bad_value{a=\"b\"}"]; ok {
		t.Error("unparseable value was kept")
	}
}
