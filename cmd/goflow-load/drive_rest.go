package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
)

// uploader is one REST load worker: a single keep-alive connection
// carrying the uploads of its share of the devices, each through the
// device's own client.Uploader over client.HTTPTransport (which sends
// the device's id as X-Device-ID, so the server's per-device rate
// limiter sees distinct devices).
type uploader struct {
	h         *httpConn
	devices   []int // fleet indices this worker speaks for
	uploaders map[int]*client.Uploader
	// refused counts 429 answers: the transport would wait out
	// Retry-After and try again, which the harness counts as a failure
	// and does not wait for.
	refused int
	tr      *tracer
}

func newUploader(t target, f *fleet, devices []int, batch int) (*uploader, error) {
	u := &uploader{h: newHTTPConn(t.base()), devices: devices, uploaders: make(map[int]*client.Uploader), tr: t.tr}
	for _, d := range devices {
		dev := f.devices[d]
		tp := &client.HTTPTransport{
			BaseURL: t.base(), AppID: appID, ClientID: dev.clientID, Client: u.h.client,
			Sleep: func(time.Duration) { u.refused++ },
		}
		up, err := client.NewUploader(client.Config{ClientID: dev.clientID, AppID: appID, Version: "1.3", BufferSize: batch}, tp)
		if err != nil {
			return nil, err
		}
		u.uploaders[d] = up
	}
	return u, nil
}

// post uploads one body for device d and reports whether the server
// answered 201 at the first attempt.
func (u *uploader) post(d int, batch []*sensing.Observation) error {
	up := u.uploaders[d]
	for _, o := range batch {
		if err := up.Record(o); err != nil {
			return err
		}
	}
	before := u.refused
	var (
		n   int
		err error
	)
	u.h.traced(u.tr, "http.client", batch[0].SensedAt.UnixNano(), func() {
		n, err = up.Flush(time.Now(), true)
	})
	switch {
	case err != nil:
		return err
	case u.refused != before:
		return fmt.Errorf("upload refused with 429")
	case n != len(batch):
		return fmt.Errorf("upload stored %d of %d observations", n, len(batch))
	}
	return nil
}

// driveBulkUpload: both workers upload 50-observation bodies over REST
// on an open-loop schedule, then closed-loop for the closing burst.
func driveBulkUpload(e *env, f *fleet) (*driveOut, error) {
	out := &driveOut{primaryName: "ack", secondaryName: "ack", ops: opCounter{window: e.window}}
	if err := loginAll(e.target, f); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	stamp := newStamper()
	t0 := time.Now().Add(e.warmup + 150*time.Millisecond)
	out.t0 = t0

	var obs []*sensing.Observation
	workers := make([]*restWorker, 2)
	for w := range workers {
		var mine []int
		for d := range f.devices {
			if d%2 == w {
				mine = append(mine, d)
			}
		}
		up, err := newUploader(e.target, f, mine, e.spec.Batch)
		if err != nil {
			return nil, err
		}
		defer up.h.close()
		wk := &restWorker{up: up, pc: realPacer(t0), ops: opCounter{window: e.window}}
		for _, due := range arrivals(rng, e.spec.PostsPerSecondPerWorker, -e.warmup, e.window) {
			d := mine[rng.Intn(len(mine))]
			ev := event{due: due, kind: opPost, device: d, first: len(obs), n: e.spec.Batch}
			for i := 0; i < e.spec.Batch; i++ {
				o := f.observation(rng, d, t0.Add(due))
				o.SensedAt = stamp.unique(t0.Add(due))
				obs = append(obs, o)
			}
			wk.events = append(wk.events, ev)
		}
		for i := 0; i < 64; i++ {
			d := mine[rng.Intn(len(mine))]
			body := pooledBody{device: d, obs: make([]*sensing.Observation, e.spec.Batch)}
			for j := range body.obs {
				body.obs[j] = f.observation(rng, d, t0)
			}
			wk.pool = append(wk.pool, body)
		}
		workers[w] = wk
	}

	edges := e.scheduleEdges(t0)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *restWorker) {
			defer wg.Done()
			wk.pc.run(wk.events, func(ev event, due time.Time, record bool) {
				batch := obs[ev.first : ev.first+ev.n]
				err := wk.up.post(ev.device, batch)
				end := time.Now()
				if record {
					wk.att++
					if err != nil || end.Sub(due) > opTimeout {
						wk.fail++
					}
				}
				if err != nil {
					return
				}
				wk.acked.add(batch)
				if record {
					wk.ops.add(ev.due, float64(ev.n))
					wk.acks = append(wk.acks, sample{ev.due, end.Sub(due)})
				}
			})
		}(wk)
	}
	wg.Wait()
	edges()

	// Closing burst: each worker sends its next body the moment the
	// previous 201 arrives; the rate is observations stored over first
	// send → last 201 across both workers.
	burstFor := time.Duration(e.spec.BurstWindowShare * e.burstScale * float64(e.window))
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *restWorker) {
			defer wg.Done()
			wk.burstFirst = time.Now()
			stop := wk.burstFirst.Add(burstFor)
			for i := 0; time.Now().Before(stop); i++ {
				body := wk.pool[i%len(wk.pool)]
				now := time.Now()
				for j, o := range body.obs {
					o.SensedAt = now.Add(time.Duration(j) * time.Microsecond)
				}
				if err := wk.up.post(body.device, body.obs); err != nil {
					wk.burstErr = err
					return
				}
				wk.burstLast = time.Now()
				wk.burstObs += len(body.obs)
				wk.acked.add(body.obs)
			}
		}(wk)
	}
	wg.Wait()
	first, last, stored := workers[0].burstFirst, workers[0].burstLast, 0
	for _, wk := range workers {
		if wk.burstErr != nil {
			return nil, fmt.Errorf("closing burst: %w", wk.burstErr)
		}
		stored += wk.burstObs
		if wk.burstFirst.Before(first) {
			first = wk.burstFirst
		}
		if wk.burstLast.After(last) {
			last = wk.burstLast
		}
	}
	if last.After(first) {
		out.burst = float64(stored) / last.Sub(first).Seconds()
	}

	var acked tally
	for _, wk := range workers {
		out.attempted += wk.att
		out.failed += wk.fail
		out.ops.merge(&wk.ops)
		out.primary = append(out.primary, wk.acks...)
		out.lateness = append(out.lateness, wk.pc.late...)
		out.blocked += wk.pc.blocked
		acked.obs += wk.acked.obs
		acked.zoned += wk.acked.zoned
	}
	// A 201 implies stored, so on this path freshness == ack; the one
	// sample answers for both latency pairs.
	out.secondary = out.primary

	from, to := rollupRange(t0)
	oh := newHTTPConn(e.base())
	defer oh.close()
	out.oracle = append(out.oracle, storeOracle(oh, acked, from, to, f.probeZone)...)
	return out, nil
}

// restWorker is one uploader's state across the open-loop window and
// the closed-loop closing burst.
type restWorker struct {
	up     *uploader
	events []event
	pc     *pacer
	acks   []sample
	acked  tally
	att    int
	fail   int
	ops    opCounter

	// pool holds the bodies the closing burst cycles through; their
	// sensing instants are restamped at send time.
	pool                  []pooledBody
	burstFirst, burstLast time.Time
	burstObs              int
	burstErr              error
}

type pooledBody struct {
	device int
	obs    []*sensing.Observation
}

// preload bulk-loads n observations spread over the trailing 24 hours
// (each device's diurnal curve) through the REST ingest endpoint, in
// large bodies over two connections: set-up, not measurement.
func preload(t target, f *fleet, rng *rand.Rand, n int, now time.Time) (tally, []string, error) {
	const perBody = 500
	type body struct {
		device int
		obs    []*sensing.Observation
	}
	var bodies []body
	perZone := map[string]int{}
	var acked tally
	for made := 0; made < n; {
		d := rng.Intn(len(f.devices))
		k := min(perBody, n-made)
		b := body{device: d, obs: make([]*sensing.Observation, k)}
		for i := range b.obs {
			at := f.diurnalInstant(rng, d, now, 24*time.Hour)
			o := f.observation(rng, d, at)
			if o.Loc != nil {
				perZone[f.zones.ZoneID(o.Loc.Point)]++
			}
			b.obs[i] = o
		}
		bodies = append(bodies, b)
		acked.add(b.obs)
		made += k
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := newHTTPConn(t.base())
			h.client.Timeout = 30 * time.Second
			defer h.close()
			for i := w; i < len(bodies); i += 2 {
				if err := postObservations(h, f.devices[bodies[i].device].clientID, bodies[i].obs); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return tally{}, nil, fmt.Errorf("preload: %w", err)
		}
	}
	// Readers pick among zones that hold enough data to page through.
	var zones []string
	for z, c := range perZone {
		if c >= 100 && z != f.probeZone {
			zones = append(zones, z)
		}
	}
	sort.Strings(zones)
	if len(zones) == 0 {
		return tally{}, nil, fmt.Errorf("preload: no zone holds 100 observations; raise preload_obs")
	}
	return acked, zones, nil
}

// postObservations uploads one raw ingest body.
func postObservations(h *httpConn, clientID string, obs []*sensing.Observation) error {
	data, err := json.Marshal(map[string]any{"clientId": clientID, "observations": obs})
	if err != nil {
		return err
	}
	status, resp, err := h.do(http.MethodPost, "/v1/apps/"+appID+"/observations",
		map[string]string{"Content-Type": "application/json", "X-Device-ID": clientID}, data)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("ingest: status %d: %s", status, bytes.TrimSpace(resp))
	}
	return nil
}

// request is one read a dashboard worker issues; valid inspects the
// answer ("answered wrongly" counts as failed).
type request struct {
	method, path string
	header       map[string]string
	body         []byte
	// cursor marks the page-walk read, whose path is completed from the
	// worker's walk state.
	cursor bool
	valid  func(status int, body []byte) bool
}

func okJSON(check func(m map[string]json.RawMessage) bool) func(int, []byte) bool {
	return func(status int, body []byte) bool {
		if status != http.StatusOK {
			return false
		}
		var m map[string]json.RawMessage
		if json.Unmarshal(body, &m) != nil {
			return false
		}
		return check == nil || check(m)
	}
}

// countWithin accepts a JSON object whose "count" is in [lo, hi].
func countWithin(lo, hi int) func(int, []byte) bool {
	return okJSON(func(m map[string]json.RawMessage) bool {
		n, err := strconv.Atoi(string(m["count"]))
		return err == nil && n >= lo && n <= hi
	})
}

// analyticsMix draws worker 1's reads: series- and forecast-backed.
func analyticsMix(rng *rand.Rand, f *fleet, zones []string, clientID string, n int) []request {
	auth := map[string]string{"X-Client-ID": clientID, "Content-Type": "application/json"}
	// Routes run between cells of the grid; the out-of-area zone id has
	// documents but no coordinates.
	var grid []string
	for _, z := range zones {
		if _, ok := f.zones.ZoneCenter(z); ok {
			grid = append(grid, z)
		}
	}
	out := make([]request, n)
	for i := range out {
		z := zones[rng.Intn(len(zones))]
		switch p := rng.Float64(); {
		case p < 0.20:
			out[i] = request{method: "GET", path: "/v1/apps/" + appID + "/noisemap", valid: countWithin(1, 1<<20)}
		case p < 0.50:
			from := time.Now().Add(-time.Hour).UTC().Format(time.RFC3339)
			out[i] = request{method: "GET", path: "/v1/apps/" + appID + "/zones/" + z + "/noise?from=" + from, valid: okJSON(nil)}
		case p < 0.70:
			// A zone too quiet to forecast answers 404: a legitimate reply.
			out[i] = request{method: "GET", path: "/v1/zones/" + z + "/forecast", valid: func(status int, body []byte) bool {
				return (status == http.StatusOK || status == http.StatusNotFound) && json.Valid(body)
			}}
		case p < 0.80:
			out[i] = request{method: "GET", path: "/v1/noisemap/forecast", valid: countWithin(1, 1<<20)}
		case p < 0.90:
			out[i] = request{method: "GET", path: "/v1/live/latest", valid: okJSON(nil)}
		default:
			a, _ := f.zones.ZoneCenter(grid[rng.Intn(len(grid))])
			b, _ := f.zones.ZoneCenter(grid[rng.Intn(len(grid))])
			body, _ := json.Marshal(map[string]geo.Point{"from": a, "to": b})
			out[i] = request{method: "POST", path: "/sc/quiet-route", header: auth, body: body, valid: okJSON(nil)}
		}
	}
	return out
}

// documentMix draws worker 2's reads: docstore-backed.
func documentMix(rng *rand.Rand, zones []string, clientID string, n int) []request {
	auth := map[string]string{"X-Client-ID": clientID}
	base := "/v1/apps/" + appID + "/observations"
	out := make([]request, n)
	for i := range out {
		z := zones[rng.Intn(len(zones))]
		switch p := rng.Float64(); {
		case p < 0.40:
			out[i] = request{method: "GET", path: base + "?limit=100&zone=" + z, valid: countWithin(1, 100)}
		case p < 0.70:
			out[i] = request{method: "GET", path: base + "/count?zone=" + z, valid: countWithin(1, 1<<30)}
		case p < 0.85:
			// A walk's last page may be empty: that is how it ends.
			out[i] = request{method: "GET", path: base + "?limit=100&zone=" + z + "&cursor=", cursor: true, valid: countWithin(0, 100)}
		case p < 0.95:
			out[i] = request{method: "GET", path: "/sc/me/exposure", header: auth, valid: okJSON(nil)}
		default:
			out[i] = request{method: "GET", path: base + "/export?zone=" + z, valid: func(status int, body []byte) bool {
				return status == http.StatusOK && bytes.Count(body, []byte("\n")) >= 100
			}}
		}
	}
	return out
}

// reader is one closed-loop dashboard worker: the next request leaves
// when the previous reply has been read in full.
type reader struct {
	h    *httpConn
	reqs []request
	tr   *tracer
	// nextCursor continues the page walk; "" starts one over.
	nextCursor string
	lat        []sample
	att, fail  int
	failures   []string
}

func (r *reader) run(t0 time.Time, warmup, window time.Duration, seq int64) {
	start, end := t0.Add(-warmup), t0.Add(window)
	if d := time.Until(start); d > 0 {
		time.Sleep(d)
	}
	for i := 0; ; i++ {
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		rq := r.reqs[i%len(r.reqs)]
		path := rq.path
		if rq.cursor {
			path += r.nextCursor
		}
		var (
			status int
			body   []byte
			err    error
		)
		r.h.traced(r.tr, "http.client", seq+int64(i)+1, func() {
			status, body, err = r.h.do(rq.method, path, rq.header, rq.body)
		})
		took := time.Since(sent)
		ok := err == nil && took <= opTimeout && rq.valid(status, body)
		if rq.cursor {
			var page struct {
				NextCursor string `json:"nextCursor"`
			}
			_ = json.Unmarshal(body, &page)
			r.nextCursor = page.NextCursor
		}
		if sent.Before(t0) {
			continue
		}
		r.att++
		if !ok {
			r.fail++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, fmt.Sprintf("%s %s: status %d err %v after %v: %.120s", rq.method, path, status, err, took, body))
			}
			continue
		}
		r.lat = append(r.lat, sample{sent.Sub(t0), took})
	}
}

// driveDashboardRead: worker 1 reads analytics, worker 2 documents, both
// closed-loop, against a store loaded before the window. clientID is the
// logged-in user whose history backs /sc/me/* and quiet-route.
func driveDashboardRead(e *env, f *fleet, zones []string, clientID string) (*driveOut, error) {
	out := &driveOut{primaryName: "analytics_read", secondaryName: "doc_query", ops: opCounter{window: e.window}}
	rng := rand.New(rand.NewSource(e.seed + 1))
	t0 := time.Now().Add(e.warmup + 150*time.Millisecond)
	out.t0 = t0

	w1 := &reader{h: newHTTPConn(e.base()), reqs: analyticsMix(rng, f, zones, clientID, 4096), tr: e.tr}
	w2 := &reader{h: newHTTPConn(e.base()), reqs: documentMix(rng, zones, clientID, 4096), tr: e.tr}
	defer w1.h.close()
	defer w2.h.close()

	edges := e.scheduleEdges(t0)
	var wg sync.WaitGroup
	for i, r := range []*reader{w1, w2} {
		wg.Add(1)
		go func(r *reader, seq int64) {
			defer wg.Done()
			r.run(t0, e.warmup, e.window, seq)
		}(r, int64(i+1)<<40)
	}
	wg.Wait()
	edges()

	out.primary, out.secondary = w1.lat, w2.lat
	out.attempted = w1.att + w2.att
	out.failed = w1.fail + w2.fail
	out.failures = append(w1.failures, w2.failures...)
	for _, r := range []*reader{w1, w2} {
		for _, s := range r.lat {
			out.ops.add(s.at, 1)
		}
	}
	return out, nil
}

// uploadHistory logs one user in and uploads that user's own history,
// spread over the trailing day, so /sc/me/exposure has a report to
// build and the latest-per-zone cache has entries.
func uploadHistory(t target, f *fleet, rng *rand.Rand, n int, now time.Time) (tally, string, error) {
	h := newHTTPConn(t.base())
	h.client.Timeout = 30 * time.Second
	defer h.close()
	user := f.devices[0]
	if err := h.login(user); err != nil {
		return tally{}, "", err
	}
	var acked tally
	for made := 0; made < n; {
		k := min(500, n-made)
		obs := make([]*sensing.Observation, k)
		for i := range obs {
			obs[i] = f.observation(rng, 0, f.diurnalInstant(rng, 0, now, 24*time.Hour))
		}
		if err := postObservations(h, user.clientID, obs); err != nil {
			return tally{}, "", fmt.Errorf("history upload: %w", err)
		}
		acked.add(obs)
		made += k
	}
	return acked, user.clientID, nil
}
