package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// runOpts selects one run.
type runOpts struct {
	root      string
	serverBin string
	specs     *specSet
	spec      workloadSpec
	seed      int64
	window    time.Duration
	// quick marks a smoke run: same phases, windows too short for the
	// named percentiles, output stamped non-comparable.
	quick bool
}

// errVoid marks a run whose numbers must not be used: the generator ran
// late or the offered rate was not sustained.
var errVoid = errors.New("run is void")

// maxLateness is the validity limit on how late the generator may
// release events. It is applied to the 90th percentile: on a two-core VM
// shared with the server under test a single preempted timer puts the
// 99th past 5 ms in an otherwise punctual run, while a generator that
// cannot keep its schedule is late on most events. The 99th is reported.
const maxLateness = 5 * time.Millisecond

// windowSample is the server as seen from outside at one window edge.
type windowSample struct {
	proc   procSample
	prom   promSample
	self   time.Duration
	scrape time.Duration
	err    error
}

func takeSample(h *httpConn, pid int) windowSample {
	var s windowSample
	s.self = selfCPU()
	s.proc, s.err = sampleProc(pid)
	prom, took, err := h.scrape()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.prom, s.scrape = prom, took
	return s
}

// measured is one drive of a workload with the outside view around its
// window.
type measured struct {
	out           *driveOut
	setups        []time.Duration
	before, after windowSample
	// end is sampled after the closing burst and the oracle, for the
	// gauges that are read as they stand (wal_replay_seconds).
	end         windowSample
	preloadDocs int
	storeDocs   int
	// httpRequests counts the requests the server answered in the window.
	httpRequests float64
	readerZones  []string
	walDir       string
}

// tmpDir makes the run's private directory under the build dir: inside
// the checkout, on the same filesystem the results are about.
func tmpDir(root, workload string) (string, error) {
	dir := filepath.Join(root, buildDir, "tmp", workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// driveReal runs the workload against the real goflow-server binary.
// repeats is how many times set-up is timed (the median is reported);
// the window runs against the last instance.
func driveReal(o runOpts, f *fleet, tmp string, window time.Duration, repeats int, burstScale float64) (*measured, error) {
	logPath := filepath.Join(outDir(o.root), o.spec.Name+".server.log")
	if err := os.MkdirAll(outDir(o.root), 0o755); err != nil {
		return nil, err
	}
	_ = os.Remove(logPath)
	m := &measured{walDir: filepath.Join(tmp, "wal")}
	rng := rand.New(rand.NewSource(o.seed + 3))
	now := time.Now()

	var srv *serverProc
	var err error
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var preloaded tally
	if o.spec.PreloadObservations > 0 {
		// Read workload: load, then crash.
		if srv, err = startServer(o.serverBin, m.walDir, logPath, o.spec.ServerFlags); err != nil {
			return nil, err
		}
		t := target{mqAddr: srv.mqAddr, httpAddr: srv.httpAddr}
		if err := loginAll(t, f); err != nil {
			return nil, err
		}
		if preloaded, m.readerZones, err = preload(t, f, rng, o.spec.PreloadObservations, now); err != nil {
			return nil, err
		}
		m.preloadDocs = preloaded.obs
		progress("%s: preloaded %d observations; kill -9", o.spec.Name, preloaded.obs)
		srv.kill()
		srv = nil
	}
	// Set-up, timed: a cold directory of its own per start on the write
	// workloads (removed together when the run ends — deleting files
	// right before the window would leave the filesystem journal busy
	// with it), a crash recovery of the preloaded directory on the read
	// workload. The window runs against the last instance.
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.kill()
		}
		if o.spec.PreloadObservations == 0 {
			m.walDir = filepath.Join(tmp, "wal-"+strconv.Itoa(i))
		}
		if srv, err = startServer(o.serverBin, m.walDir, logPath, o.spec.ServerFlags); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, srv.setup)
	}
	// Flush what set-up left dirty, so that every window starts from a
	// quiet disk whatever ran before it.
	syscall.Sync()

	progress("%s: set-up done (%d × goflow-server start, median %.3fs)", o.spec.Name, len(m.setups), medianDuration(m.setups, time.Second))
	t := target{mqAddr: srv.mqAddr, httpAddr: srv.httpAddr}
	side := newHTTPConn(t.base())
	defer side.close()
	e := &env{
		target: t, spec: o.spec, seed: o.seed, window: window,
		warmup:        o.specs.warmup(),
		burstScale:    burstScale,
		atWindowStart: func() { m.before = takeSample(side, srv.pid()) },
		atWindowEnd:   func() { m.after = takeSample(side, srv.pid()) },
	}

	if drive, ok := writeDrives[o.spec.Name]; ok {
		m.out, err = drive(e, f)
	} else {
		// The recovered instance must hold exactly what was acknowledged
		// before the crash — checked before anything else is written.
		var cnt struct {
			Count int `json:"count"`
		}
		if err := side.getJSON("/v1/apps/"+appID+"/observations/count", &cnt); err != nil {
			return nil, err
		}
		c := check("count after kill -9 + restart == acked", cnt.Count == preloaded.obs,
			fmt.Sprintf("recovered %d, acked before the crash %d", cnt.Count, preloaded.obs))
		history, user, herr := uploadHistory(t, f, rng, o.spec.HistoryObservations, now)
		if herr != nil {
			return nil, herr
		}
		if m.out, err = driveDashboardRead(e, f, m.readerZones, user); err != nil {
			return nil, err
		}
		m.out.oracle = append(m.out.oracle, c)
		all := tally{obs: preloaded.obs + history.obs, zoned: preloaded.zoned + history.zoned}
		from := now.Add(-25 * time.Hour).Truncate(5 * time.Minute).UTC()
		_, to := rollupRange(time.Now())
		side.client.Timeout = 30 * time.Second
		m.out.oracle = append(m.out.oracle, storeOracle(side, all, from, to, f.probeZone)...)
		m.storeDocs = all.obs
	}
	if err != nil {
		return nil, err
	}
	progress("%s: real-binary drive done", o.spec.Name)
	if m.storeDocs == 0 {
		m.storeDocs = int(m.out.ops.total)
	}
	if m.before.err != nil {
		return nil, fmt.Errorf("window-start sample: %w", m.before.err)
	}
	if m.after.err != nil {
		return nil, fmt.Errorf("window-end sample: %w", m.after.err)
	}
	m.httpRequests = m.after.prom.delta(m.before.prom).sum("http_requests_total")
	m.end = takeSample(side, srv.pid())
	if m.end.err != nil {
		return nil, fmt.Errorf("end-of-run sample: %w", m.end.err)
	}
	return m, nil
}

// validity refuses a run whose generator ran late or whose offered rate
// the server did not sustain.
func validity(out *driveOut) (latenessP99 time.Duration, backlogMax int, err error) {
	if len(out.lateness) > 0 {
		ns := make([]float64, len(out.lateness))
		for i, d := range out.lateness {
			ns[i] = float64(d)
		}
		ns = sortedCopy(ns)
		latenessP99 = time.Duration(quantile(ns, 99))
		if p90 := time.Duration(quantile(ns, 90)); p90 > maxLateness {
			return latenessP99, 0, fmt.Errorf("%w: generator lateness p90 %v exceeds %v", errVoid, p90, maxLateness)
		}
	}
	// Growing backlog: the mean depth over the last fifth of the window
	// exceeds the first fifth's by more than the deepest the queue got in
	// that first fifth, plus a floor of 200 messages.
	if n := len(out.backlog); n >= 10 {
		fifth := n / 5
		head, tail, headMax := 0.0, 0.0, 0
		for i := 0; i < fifth; i++ {
			head += float64(out.backlog[i])
			tail += float64(out.backlog[n-1-i])
			headMax = max(headMax, out.backlog[i])
		}
		for _, b := range out.backlog {
			backlogMax = max(backlogMax, b)
		}
		if (tail-head)/float64(fifth) > float64(headMax)+200 {
			return latenessP99, backlogMax, fmt.Errorf("%w: GF backlog grew over the window (first fifth mean %.0f, last fifth mean %.0f): the rate is not sustained",
				errVoid, head/float64(fifth), tail/float64(fifth))
		}
	}
	return latenessP99, backlogMax, nil
}

// tailNote says which percentile a tail figure really is when the
// sample cannot support the one in the metric's name.
func tailNote(s latencyStat) string {
	if s.TailPct == 99 || s.N == 0 {
		return ""
	}
	return fmt.Sprintf("p%v: %d samples cannot support p99", s.TailPct, s.N)
}

// endToEndMetrics assembles the bounded metrics of a timed run.
func endToEndMetrics(m *measured) map[string]metric {
	out := map[string]metric{}
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	out["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	lat, rep := summarize(m.out.primary), summarize(m.out.secondary)
	out["latency_p50_ms"] = metric{Value: lat.P50, Unit: "ms", N: lat.N, Note: m.out.primaryName}
	out["reply_p50_ms"] = metric{Value: rep.P50, Unit: "ms", N: rep.N, Note: m.out.secondaryName}
	// Peak RSS is read at the window's end: what the window ingested is
	// fixed by the schedule, what the closing burst adds is not.
	out["server_rss_mb"] = metric{Value: m.after.proc.hwmMiB, Unit: "MiB"}
	return out
}

// namedMetrics are the issue's workload-specific end-to-end names.
func namedMetrics(m *measured) map[string]metric {
	out := map[string]metric{}
	lat, rep := summarize(m.out.primary), summarize(m.out.secondary)
	out["e2e."+m.out.primaryName+"_p50_ms"] = metric{Value: lat.P50, Unit: "ms", N: lat.N}
	out["e2e."+m.out.primaryName+"_p99_ms"] = metric{Value: lat.Tail, Unit: "ms", N: lat.N, Note: tailNote(lat)}
	out["e2e."+m.out.secondaryName+"_p50_ms"] = metric{Value: rep.P50, Unit: "ms", N: rep.N}
	out["e2e."+m.out.secondaryName+"_p99_ms"] = metric{Value: rep.Tail, Unit: "ms", N: rep.N, Note: tailNote(rep)}
	if m.out.burst > 0 {
		out["e2e.burst_drain_obs_s"] = metric{Value: m.out.burst, Unit: "1/s", Note: "closing burst: observations stored per second"}
	} else {
		// The read workload is closed-loop, so its request rate is its
		// capacity: the median slice's rate.
		rates := make([]float64, slices)
		for k, n := range m.out.ops.bySlice {
			rates[k] = n / (m.out.ops.window.Seconds() / slices)
		}
		out["e2e.read_rate_per_s"] = metric{Value: median(rates), Unit: "1/s", N: slices, Note: "closed loop: requests served per second, median slice"}
	}
	for _, x := range []struct {
		name string
		v    []sample
	}{{m.out.primaryName, m.out.primary}, {m.out.secondaryName, m.out.secondary}} {
		v, n := slicedPercentile(x.v, m.out.ops.window, 95)
		out["e2e."+x.name+"_p95_ms"] = metric{Value: v, Unit: "ms", N: n, Note: "median over the window's slices of the slice's p95"}
	}
	cpu := m.after.proc.cpu() - m.before.proc.cpu()
	out["e2e.cpu_ms_per_kop"] = metric{Value: per(float64(cpu)/float64(time.Millisecond), m.out.ops.total/1000), Unit: "ms", N: int(m.out.ops.total)}
	if m.out.pushAcked > 0 {
		out["e2e.push_loss_ratio"] = metric{Value: per(float64(m.out.pushLost), float64(m.out.pushAcked)), Unit: "ratio", N: m.out.pushAcked}
	}
	out["e2e.fail_ratio"] = metric{Value: per(float64(m.out.failed), float64(m.out.attempted)), Unit: "ratio", N: m.out.attempted}
	return out
}

// scrapedMetrics derives the source-S layer metrics from the real
// server's /metrics and /proc deltas across the timed window.
func scrapedMetrics(m *measured) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	d := m.after.prom.delta(m.before.prom)
	ops := m.out.ops.total
	writes := m.out.primaryName != "analytics_read"

	if writes {
		put("mq.wire_bytes_per_obs", "B", per(d.sum("mq_wire_read_bytes_total"), ops))
		put("wal.records_per_obs", "ratio", per(d.sum("wal_records_total"), ops))
		put("wal.bytes_per_obs", "B", per(d.sum("wal_bytes_total"), ops))
		put("disk.write_bytes_per_obs", "B", per(m.after.proc.writeBytes-m.before.proc.writeBytes, ops))
	}
	put("mq.route_cache_hit_ratio", "ratio", ratio(d.sum("mq_route_cache_hits_total"), d.sum("mq_route_cache_misses_total")))
	put("mq.live_fanout_us", "us", d.histMean("live_fanout_duration_seconds")*1e6)
	put("mq.live_dropped", "count", d.sum("live_dropped_total"))

	reqs := d.sum("http_requests_total") - d.sum("http_requests_total", `route="GET /metrics"`)
	bytes := d.sum("http_response_bytes_total") - d.sum("http_response_bytes_total", `route="GET /metrics"`)
	put("goflow.response_bytes_per_req", "B", per(bytes, reqs))
	put("goflow.rejected", "count", d.sum("goflow_rejected_total"))
	for _, reason := range []string{"rate_limited", "overloaded", "queue_full", "breaker_open"} {
		put("guard.rejected."+reason, "count", d.sum("guard_rejected_total", `reason="`+reason+`"`))
	}
	put("docstore.index_used_ratio", "ratio", ratio(d.sum("docstore_queries_total", `index="hit"`), d.sum("docstore_queries_total", `index="miss"`)))

	put("wal.fsync_us", "us", d.histMean("wal_fsync_duration_seconds")*1e6)
	put("wal.records_per_fsync", "ratio", per(d.sum("wal_records_total"), d.sum("wal_fsyncs_total")))
	put("wal.replay_s", "s", m.end.prom.sum("wal_replay_seconds"))

	put("series.query_us", "us", d.histMean("series_query_duration_seconds")*1e6)
	put("series.chunks_scanned_per_query", "ratio", per(d.sum("series_chunks_scanned_total"), d.sum("series_query_duration_seconds_count")))

	put("predict.zone_forecast_us", "us", d.histMean("predict_zone_forecast_duration_seconds")*1e6)
	put("predict.sweep_ms", "ms", d.histMean("predict_sweep_duration_seconds")*1e3)
	put("predict.quiet_route_ms", "ms", d.histMean("predict_reroute_duration_seconds")*1e3)

	put("obs.metrics_scrape_ms", "ms", float64(m.after.scrape)/float64(time.Millisecond))
	put("proc.cpu_user_s", "s", (m.after.proc.utime - m.before.proc.utime).Seconds())
	put("proc.cpu_sys_s", "s", (m.after.proc.stime - m.before.proc.stime).Seconds())
	put("proc.ctx_switches", "count", m.after.proc.ctxSwitches-m.before.proc.ctxSwitches)

	self := m.after.self - m.before.self
	server := m.after.proc.cpu() - m.before.proc.cpu()
	put("loadgen.cpu_share", "ratio", ratio(float64(self), float64(server)))
	if m.preloadDocs > 0 && len(m.setups) > 0 {
		secs := make([]float64, len(m.setups))
		for i, s := range m.setups {
			secs[i] = s.Seconds()
		}
		put("docstore.recover_docs_s", "1/s", per(float64(m.preloadDocs), median(secs)))
	}
	return out
}

// harnessMetrics are the generator's figures about itself.
func harnessMetrics(out *driveOut, latenessP99 time.Duration, backlogMax int) map[string]metric {
	events := len(out.lateness) + out.blocked
	return map[string]metric{
		"loadgen.lateness_p99_ms": {Value: float64(latenessP99) / float64(time.Millisecond), Unit: "ms", N: len(out.lateness)},
		"loadgen.blocked_share": {Value: per(float64(out.blocked), float64(events)), Unit: "ratio", N: events,
			Note: "events due while the worker's previous operation was still in flight"},
		"mq.gf_backlog_max": {Value: float64(backlogMax), Unit: "count", N: len(out.backlog)},
	}
}

// newResult starts a result record for a run.
func newResult(o runOpts, window time.Duration, trace bool, env envInfo) *runResult {
	return &runResult{
		Schema: schemaVersion, Workload: o.spec.Name, Seed: o.seed, Seconds: window.Seconds(),
		Trace: trace, Comparable: !o.quick, Env: env, Metrics: map[string]metric{},
	}
}

func (r *runResult) merge(ms map[string]metric) {
	for k, v := range ms {
		r.Metrics[k] = v
	}
}

// settle folds a drive's counts and oracle into the result.
func (r *runResult) settle(out *driveOut) {
	for _, f := range out.failures {
		progress("%s: failed operation: %s", r.Workload, f)
	}
	r.Attempted += out.attempted
	r.Failed += out.failed
	r.Oracle = append(r.Oracle, out.oracle...)
	r.Correct = true
	for _, c := range r.Oracle {
		if !c.OK {
			r.Correct = false
		}
	}
}

// writeDrives are the write workloads' drives; the read workload needs
// its preloaded zones and logged-in user and is called by name.
var writeDrives = map[string]func(*env, *fleet) (*driveOut, error){
	"device-stream": driveDeviceStream,
	"live-city":     driveLiveCity,
	"bulk-upload":   driveBulkUpload,
}

// startRun prepares what both kinds of run need: the fleet, the run's
// temp directory (the caller removes it) and the raw fsync figure.
func startRun(o runOpts) (f *fleet, tmp string, fsyncUS float64, err error) {
	if _, write := writeDrives[o.spec.Name]; !write && o.spec.PreloadObservations == 0 {
		return nil, "", 0, fmt.Errorf("workload %q has no drive", o.spec.Name)
	}
	if f, err = newFleet(o.seed, o.specs.Devices, o.specs.ProbeZone); err != nil {
		return nil, "", 0, err
	}
	if tmp, err = tmpDir(o.root, o.spec.Name); err != nil {
		return nil, "", 0, err
	}
	if fsyncUS, err = fsyncMicros(tmp); err != nil {
		os.RemoveAll(tmp)
		return nil, "", 0, err
	}
	return f, tmp, fsyncUS, nil
}

// timedRun is the --trace 0 run: the end-to-end metrics, tracing off,
// against the real binary.
func timedRun(o runOpts) (*runResult, error) {
	f, tmp, fs, err := startRun(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	repeats := o.spec.SetupRepeats
	if o.quick {
		repeats = 1
	}
	m, err := driveReal(o, f, tmp, o.window, repeats, 1)
	if err != nil {
		return nil, err
	}
	late, backlogMax, verr := validity(m.out)
	if verr != nil {
		return nil, verr
	}
	r := newResult(o, o.window, false, readEnv(fs))
	r.merge(endToEndMetrics(m))
	r.merge(namedMetrics(m))
	r.merge(scrapedMetrics(m))
	r.merge(harnessMetrics(m.out, late, backlogMax))
	r.Metrics["env.fsync_us"] = metric{Value: fs, Unit: "us", N: 64}
	r.settle(m.out)
	return r, nil
}
