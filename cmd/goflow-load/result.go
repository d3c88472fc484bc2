package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// schemaVersion names the one result schema (bench/schema.md) shared by
// bench/out/*.json, bench/baseline.json and -compare's inputs.
const schemaVersion = "goflow-load/1"

// metric is one measured figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 for counters and
	// ratios taken over the whole window).
	N int `json:"n,omitempty"`
	// Note qualifies the value, e.g. which percentile a tail is when the
	// sample was too small for the 99th.
	Note string `json:"note,omitempty"`
}

// metricDef declares a metric: its unit, which way is better, the layer
// it belongs to and where the number comes from. The end-to-end ones
// also carry the regression bound BENCHMARK.json repeats.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string
	// Source: E end to end against the real binary, S delta of the real
	// server's /metrics over the window, T traced in-process run, D
	// direct timed call into the layer, H the harness about itself.
	Source string
	Bound  float64 // end-to-end only
}

// endToEnd are the bounded metrics every workload reports from a timed
// run. What latency and reply mean per workload is fixed in
// bench/README.md: latency is the delay the workload is named for
// (freshness, push, ack, analytics read); reply is the load worker's own
// request→reply time (publish ack, 201, document query). Only figures
// that hold a 25 % bound run after run on a shared two-core VM are
// here; the tails, the burst drain rate and CPU per operation did not,
// and are reported unbounded among the per-layer metrics (e2e.*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "end_to_end", "E", 0.25},
	{"latency_p50_ms", "ms", "lower", "end_to_end", "E", 0.25},
	{"reply_p50_ms", "ms", "lower", "end_to_end", "E", 0.25},
	{"server_rss_mb", "MiB", "lower", "end_to_end", "E", 0.25},
}

// perLayer are the metrics a traced run reports. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	// The issue's workload-specific end-to-end names, from the traced
	// run's real-binary phase. Unbounded here; the medians' bounded forms
	// are latency_p50_ms and reply_p50_ms above.
	{"e2e.freshness_p50_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.freshness_p95_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.freshness_p99_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.ack_p50_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.ack_p95_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.ack_p99_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.push_p50_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.push_p95_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.push_p99_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.push_loss_ratio", "ratio", "lower", "e2e", "E", 0},
	{"e2e.analytics_read_p50_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.analytics_read_p95_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.analytics_read_p99_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.doc_query_p50_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.doc_query_p95_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.doc_query_p99_ms", "ms", "lower", "e2e", "E", 0},
	{"e2e.burst_drain_obs_s", "1/s", "higher", "e2e", "E", 0},
	{"e2e.read_rate_per_s", "1/s", "higher", "e2e", "E", 0},
	{"e2e.cpu_ms_per_kop", "ms", "lower", "e2e", "E", 0},
	{"e2e.fail_ratio", "ratio", "lower", "e2e", "E", 0},

	{"loadgen.lateness_p99_ms", "ms", "lower", "loadgen", "H", 0},
	{"loadgen.cpu_share", "ratio", "lower", "loadgen", "H", 0},
	{"trace.overhead_pct", "%", "lower", "loadgen", "H", 0},

	{"client.encode_us_per_obs", "us", "lower", "client", "D", 0},
	{"sensing.decode_us", "us", "lower", "sensing", "D", 0},
	{"geo.zone_id_ns", "ns", "lower", "geo", "D", 0},

	{"mq.publish_rpc_us", "us", "lower", "mq", "T", 0},
	{"mq.broker_publish_ns", "ns", "lower", "mq", "D", 0},
	{"mq.wire_bytes_per_obs", "B", "lower", "mq", "S", 0},
	{"mq.route_cache_hit_ratio", "ratio", "higher", "mq", "S", 0},
	{"mq.gf_backlog_max", "count", "lower", "mq", "H", 0},
	{"mq.live_fanout_us", "us", "lower", "mq", "S", 0},
	{"mq.live_dropped", "count", "lower", "mq", "S", 0},

	{"goflow.ingest_wait_us", "us", "lower", "goflow", "T", 0},
	{"goflow.ingest_gap_us", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.ingest", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.noisemap", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.zone_noise", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.forecast", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.observations", "us", "lower", "goflow", "T", 0},
	{"goflow.rest_handler_us.count", "us", "lower", "goflow", "T", 0},
	{"goflow.http_overhead_us", "us", "lower", "goflow", "T", 0},
	{"goflow.response_bytes_per_req", "B", "lower", "goflow", "S", 0},
	{"goflow.rejected", "count", "lower", "goflow", "S", 0},

	{"guard.rejected.rate_limited", "count", "lower", "guard", "S", 0},
	{"guard.rejected.overloaded", "count", "lower", "guard", "S", 0},
	{"guard.rejected.queue_full", "count", "lower", "guard", "S", 0},
	{"guard.rejected.breaker_open", "count", "lower", "guard", "S", 0},
	{"guard.admit_ns", "ns", "lower", "guard", "D", 0},

	{"storage.insert_us", "us", "lower", "storage", "T", 0},
	{"storage.insert_many_us_per_obs", "us", "lower", "storage", "T", 0},
	{"storage.find_us", "us", "lower", "storage", "T", 0},
	{"storage.count_us", "us", "lower", "storage", "T", 0},
	{"storage.series_query_us", "us", "lower", "storage", "T", 0},
	{"storage.insert_unattributed_pct", "%", "lower", "storage", "T", 0},

	{"docstore.insert_us", "us", "lower", "docstore", "D", 0},
	{"docstore.insert_many_us_per_doc", "us", "lower", "docstore", "D", 0},
	{"docstore.encode_mutation_us", "us", "lower", "docstore", "D", 0},
	{"docstore.encode_mutation_us_per_doc.batch50", "us", "lower", "docstore", "D", 0},
	{"docstore.find_zone_us", "us", "lower", "docstore", "D", 0},
	{"docstore.count_us", "us", "lower", "docstore", "D", 0},
	{"docstore.index_used_ratio", "ratio", "higher", "docstore", "S", 0},
	{"docstore.recover_docs_s", "1/s", "higher", "docstore", "E", 0},

	{"wal.append_wait_us", "us", "lower", "wal", "D", 0},
	{"wal.fsync_us", "us", "lower", "wal", "S", 0},
	{"wal.records_per_fsync", "ratio", "higher", "wal", "S", 0},
	{"wal.records_per_obs", "ratio", "lower", "wal", "S", 0},
	{"wal.bytes_per_obs", "B", "lower", "wal", "S", 0},
	{"wal.replay_s", "s", "lower", "wal", "S", 0},
	{"disk.write_bytes_per_obs", "B", "lower", "wal", "S", 0},

	{"series.append_us_per_point", "us", "lower", "series", "D", 0},
	{"series.zone_agg_us", "us", "lower", "series", "D", 0},
	{"series.noisemap_us", "us", "lower", "series", "D", 0},
	{"series.query_us", "us", "lower", "series", "S", 0},
	{"series.chunks_scanned_per_query", "ratio", "lower", "series", "S", 0},
	{"series.bytes_per_point", "B", "lower", "series", "D", 0},

	{"predict.zone_forecast_us", "us", "lower", "predict", "S", 0},
	{"predict.sweep_ms", "ms", "lower", "predict", "S", 0},
	{"predict.quiet_route_ms", "ms", "lower", "predict", "S", 0},
	{"soundcity.exposure_ms", "ms", "lower", "soundcity", "T", 0},

	{"obs.metrics_scrape_ms", "ms", "lower", "obs", "H", 0},
	{"proc.cpu_user_s", "s", "lower", "process", "S", 0},
	{"proc.cpu_sys_s", "s", "lower", "process", "S", 0},
	{"proc.ctx_switches", "count", "lower", "process", "S", 0},
	{"env.fsync_us", "us", "lower", "process", "D", 0},
}

// envInfo records the machine a result was measured on, so that numbers
// from two machines are never compared by accident.
type envInfo struct {
	NProc     int     `json:"nproc"`
	CPUModel  string  `json:"cpu_model"`
	GoVersion string  `json:"go_version"`
	FsyncUS   float64 `json:"env.fsync_us"`
}

func readEnv(fsyncUS float64) envInfo {
	env := envInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), FsyncUS: fsyncUS}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					env.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return env
}

// runResult is one run of one workload (bench/schema.md).
type runResult struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Comparable is false for -quick smoke runs: their windows are too
	// short for the percentiles the names promise.
	Comparable bool              `json:"comparable"`
	Env        envInfo           `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Oracle     []oracleCheck     `json:"oracle"`
	Metrics    map[string]metric `json:"metrics"`
}

// resultSet is a set of runs: what the default mode writes, what the
// baseline file holds and what -compare reads.
type resultSet struct {
	Schema string      `json:"schema"`
	Taken  time.Time   `json:"taken"`
	Env    envInfo     `json:"env"`
	Runs   []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaVersion)
	}
	return &s, nil
}

// contractLine prints the single JSON object the driver reads from the
// last line of standard output: exactly the declared metrics of the
// run's kind, value and unit only.
func contractLine(w io.Writer, r *runResult) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printTable writes every metric of a run by name with its unit and
// sample count, grouped by layer in declaration order.
func printTable(w io.Writer, r *runResult) {
	kind := "timed"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (%s run, seed %d, %.0f s window", r.Workload, kind, r.Seed, r.Seconds)
	if !r.Comparable {
		fmt.Fprint(w, ", QUICK: not comparable")
	}
	fmt.Fprintln(w, ")")
	printed := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		printed[d.Name] = true
		printMetric(w, d.Layer, d.Source, d.Name, m)
	}
	var rest []string
	for name := range r.Metrics {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		printMetric(w, "", "", name, r.Metrics[name])
	}
	for _, c := range r.Oracle {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  oracle %s %-55s %s\n", mark, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func printMetric(w io.Writer, layer, source, name string, m metric) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("n=%d", m.N)
	}
	fmt.Fprintf(w, "  %-10s %-1s %-46s %14.4f %-6s %-9s %s\n", layer, source, name, m.Value, m.Unit, n, m.Note)
}
