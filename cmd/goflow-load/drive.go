package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/simclock"
)

const appID = "SC"

// target is the node a workload drives: the real binary in timed runs,
// the in-process node in traced ones. Workers see only addresses.
type target struct {
	mqAddr   string
	httpAddr string
	tr       *tracer // nil when tracing is off
}

func (t target) base() string { return "http://" + t.httpAddr }

// env is everything one drive of a workload needs.
type env struct {
	target
	spec   workloadSpec
	seed   int64
	window time.Duration
	warmup time.Duration
	// burstScale shrinks the closing burst in traced runs, whose
	// capacity figure is not reported.
	burstScale float64
	// atWindowStart and atWindowEnd, when set, run on a side goroutine
	// at the edges of the timed window (process and /metrics samples).
	atWindowStart, atWindowEnd func()
}

// slices is how many equal parts the timed window is cut into where a
// figure is taken per slice and the median slice reported (the 95th
// percentiles, the read workload's request rate): a stall that hits
// one slice — a neighbour's burst on the shared host, a long GC cycle —
// moves one slice's figure, not the run's.
const slices = 5

// opCounter counts operations completed in the timed window, in total
// and per slice (by the instant the operation was due).
type opCounter struct {
	window  time.Duration
	total   float64
	bySlice [slices]float64
}

func (c *opCounter) add(at time.Duration, n float64) {
	c.total += n
	c.bySlice[sliceOf(at, c.window)] += n
}

func (c *opCounter) merge(o *opCounter) {
	c.total += o.total
	for i, v := range o.bySlice {
		c.bySlice[i] += v
	}
}

// sliceOf maps an offset into the window to its slice.
func sliceOf(at, window time.Duration) int {
	k := int(at * slices / window)
	return max(0, min(slices-1, k))
}

// driveOut is what a drive hands back for metric assembly.
type driveOut struct {
	attempted, failed int
	// failures keeps the first few failed operations, for the operator.
	failures []string
	// primary is the delay the workload is named for (freshness, push,
	// ack or analytics read), secondary the worker's own request→reply
	// time (publish ack, or document query); both timed from due.
	primary, secondary         []sample
	primaryName, secondaryName string
	lateness                   []time.Duration
	// blocked counts window events that came due while the worker's
	// connection was still busy with the previous one.
	blocked int
	// ops counts observations stored (write workloads) or requests
	// served (read workload) inside the timed window.
	ops opCounter
	// burst is the closing burst's drain rate in observations per
	// second (write workloads; 0 on the read workload).
	burst float64
	// pushAcked and pushLost count live events of the window.
	pushAcked, pushLost int
	// backlog holds the GF queue depth sampled at 10 Hz over the window.
	backlog []int
	oracle  []oracleCheck
	// t0 is the window origin; probes maps probe ids to due and seen
	// instants for the traced stage breakdown.
	t0     time.Time
	probes []probeRecord
}

// sample is one latency observation: when the operation was due, as an
// offset into the timed window, and how long after that it completed.
type sample struct{ at, d time.Duration }

type probeRecord struct {
	id        int64
	due, seen time.Time
}

// stamper hands out unique sensing instants at (or a few microseconds
// after) an event's due time: the instant doubles as the observation's
// trace id and as the key that matches live frames back to publishes.
type stamper struct{ used map[int64]struct{} }

func newStamper() *stamper { return &stamper{used: make(map[int64]struct{})} }

func (s *stamper) unique(at time.Time) time.Time {
	at = at.Truncate(time.Microsecond)
	for {
		if _, dup := s.used[at.UnixNano()]; !dup {
			s.used[at.UnixNano()] = struct{}{}
			return at
		}
		at = at.Add(time.Microsecond)
	}
}

// publisher is load worker 1 of the broker workloads: one mq.Conn, with
// every device's own v1.1/v1.3 uploader multiplexed over it.
type publisher struct {
	conn       *mq.Conn
	fleet      *fleet
	uploaders  []*client.Uploader
	transports []*client.MQTransport
	probe      *client.Uploader
	tr         *tracer
}

func newPublisher(t target, f *fleet, batch int) (*publisher, error) {
	conn, err := mq.Dial(t.mqAddr)
	if err != nil {
		return nil, err
	}
	p := &publisher{conn: conn, fleet: f, tr: t.tr}
	mk := func(d *simDevice, size int) (*client.Uploader, *client.MQTransport, error) {
		tp := client.NewMQTransport(conn, d.exchange, appID, d.clientID)
		u, err := client.NewUploader(client.Config{ClientID: d.clientID, AppID: appID, Version: "1.3", BufferSize: size}, tp)
		return u, tp, err
	}
	for _, d := range f.devices {
		u, tp, err := mk(d, batch)
		if err != nil {
			conn.Close()
			return nil, err
		}
		p.uploaders = append(p.uploaders, u)
		p.transports = append(p.transports, tp)
	}
	if p.probe, _, err = mk(f.probe, 1); err != nil {
		conn.Close()
		return nil, err
	}
	return p, nil
}

// emit records the observations on the device's uploader and flushes:
// the real client path, encode included. It returns when the broker's
// reply arrived.
func (p *publisher) emit(u *client.Uploader, batch []*sensing.Observation) error {
	for _, o := range batch {
		if err := u.Record(o); err != nil {
			return err
		}
	}
	span := p.tr.begin("mq.publish_rpc", batch[0].SensedAt.UnixNano())
	if p.tr != nil {
		ids := make([]int64, len(batch))
		for i, o := range batch {
			ids[i] = o.SensedAt.UnixNano()
		}
		p.tr.link(span, ids...)
	}
	n, err := u.Flush(time.Now(), true)
	p.tr.end(span)
	if err != nil {
		return err
	}
	if n != len(batch) {
		return fmt.Errorf("flush sent %d of %d observations", n, len(batch))
	}
	return nil
}

// backlogSampler polls the GF queue depth on the publisher's own
// connection at 10 Hz until stopped.
func (p *publisher) backlogSampler(from, to time.Time, stop <-chan struct{}) func() []int {
	var (
		mu  sync.Mutex
		out []int
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				if now.Before(from) || now.After(to) {
					continue
				}
				if st, err := p.conn.QueueStats(goflow.GoFlowQueue); err == nil {
					mu.Lock()
					out = append(out, st.Ready+st.Unacked)
					mu.Unlock()
				}
			}
		}
	}()
	return func() []int {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return out
	}
}

// waitDrained polls the GF queue until the ingest loop has stored and
// acknowledged everything, returning the instant it saw that.
func (p *publisher) waitDrained(limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for {
		st, err := p.conn.QueueStats(goflow.GoFlowQueue)
		now := time.Now()
		if err != nil {
			return now, err
		}
		if st.Ready == 0 && st.Unacked == 0 {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("GF queue not drained after %v (ready=%d unacked=%d)", limit, st.Ready, st.Unacked)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// burst sends m observations as fast as the connection accepts them,
// batch per publish, and times first send → everything stored.
func (p *publisher) burst(rng *rand.Rand, stamp *stamper, m, batch int, acked *tally) (obsPerSecond float64, err error) {
	// Content is drawn before the clock starts; only the sensing
	// instants are stamped at send time.
	type flush struct {
		device int
		obs    []*sensing.Observation
	}
	var flushes []flush
	sent := 0
	for sent < m {
		d := rng.Intn(len(p.fleet.devices))
		f := flush{device: d}
		for i := 0; i < batch; i++ {
			f.obs = append(f.obs, p.fleet.observation(rng, d, time.Now()))
		}
		flushes = append(flushes, f)
		sent += batch
	}
	start := time.Now()
	for _, f := range flushes {
		now := time.Now()
		for _, o := range f.obs {
			o.SensedAt = stamp.unique(now)
			o.AppVersion = "1.3"
		}
		if err := p.transports[f.device].Send(f.obs, now); err != nil {
			return 0, fmt.Errorf("burst publish: %w", err)
		}
		acked.add(f.obs)
	}
	drained, err := p.waitDrained(60 * time.Second)
	if err != nil {
		return 0, err
	}
	return float64(sent) / drained.Sub(start).Seconds(), nil
}

// closingBurst sizes the workload's closing burst from its spec and
// the window length, and runs it.
func (p *publisher) closingBurst(e *env, rng *rand.Rand, stamp *stamper, acked *tally) (float64, error) {
	m := int(float64(e.spec.BurstObsPerWindowSecond) * e.window.Seconds() * e.burstScale)
	return p.burst(rng, stamp, m, e.spec.BurstBatch, acked)
}

// loginAll gives every device (and the probe device) its own login.
func loginAll(t target, f *fleet) error {
	h := newHTTPConn(t.base())
	defer h.close()
	for _, d := range append(append([]*simDevice(nil), f.devices...), f.probe) {
		if err := h.login(d); err != nil {
			return err
		}
	}
	return nil
}

// rollupRange is a bucket-aligned range around the run: reads over it
// are answered from the continuous aggregates alone, in O(buckets),
// with no chunk scan at the edges.
func rollupRange(around time.Time) (from, to time.Time) {
	const bucket = 5 * time.Minute
	return around.Add(-10 * time.Minute).Truncate(bucket).UTC(), around.Add(15 * time.Minute).Truncate(bucket).UTC()
}

// rangeQuery encodes a from/to range the way the noise and observation
// endpoints read it.
func rangeQuery(from, to time.Time) string {
	return url.Values{"from": {from.Format(time.RFC3339)}, "to": {to.Format(time.RFC3339)}}.Encode()
}

// prober is the freshness worker: for each tagged probe, from its due
// instant on, it polls the probe zone's rollup count until the count
// includes it. One keep-alive connection, one request in flight.
func runProber(h *httpConn, path string, dues []time.Time) (seen []time.Time, err error) {
	const pollPause = 200 * time.Microsecond
	seen = make([]time.Time, len(dues))
	for k := 0; k < len(dues); {
		if d := time.Until(dues[k]); d > 0 {
			time.Sleep(d)
		}
		var resp struct {
			Count int `json:"count"`
		}
		if err := h.getJSON(path, &resp); err != nil {
			return seen, err
		}
		now := time.Now()
		for k < len(dues) && k < resp.Count {
			seen[k] = now
			k++
		}
		if k < len(dues) && now.Sub(dues[k]) > opTimeout {
			// The probe is lost or the server is seconds behind; either
			// way every later probe counts as failed too.
			return seen, nil
		}
		if k < len(dues) && !dues[k].After(now) {
			time.Sleep(pollPause)
		}
	}
	return seen, nil
}

// scheduleEdges fires the window-edge callbacks at their instants.
func (e *env) scheduleEdges(t0 time.Time) (wait func()) {
	var wg sync.WaitGroup
	at := func(when time.Time, fn func()) {
		if fn == nil {
			return
		}
		wg.Add(1)
		time.AfterFunc(time.Until(when), func() {
			defer wg.Done()
			fn()
		})
	}
	at(t0, e.atWindowStart)
	at(t0.Add(e.window), e.atWindowEnd)
	return wg.Wait
}

func realPacer(t0 time.Time) *pacer { return newPacer(simclock.Real(), time.Sleep, t0) }

// driveDeviceStream: worker 1 publishes buffered batches and probes
// over the broker, worker 2 measures sensed→queryable on the probes.
func driveDeviceStream(e *env, f *fleet) (*driveOut, error) {
	out := &driveOut{primaryName: "freshness", secondaryName: "ack", ops: opCounter{window: e.window}}
	if err := loginAll(e.target, f); err != nil {
		return nil, err
	}
	pub, err := newPublisher(e.target, f, e.spec.Batch)
	if err != nil {
		return nil, err
	}
	defer pub.conn.Close()
	probeHTTP := newHTTPConn(e.base())
	defer probeHTTP.close()

	rng := rand.New(rand.NewSource(e.seed))
	stamp := newStamper()
	t0 := time.Now().Add(e.warmup + 150*time.Millisecond)
	out.t0 = t0

	var obs []*sensing.Observation
	var flushes, probes []event
	for _, due := range arrivals(rng, e.spec.ObsPerSecond/float64(e.spec.Batch), -e.warmup, e.window) {
		d := rng.Intn(len(f.devices))
		ev := event{due: due, kind: opFlush, device: d, first: len(obs), n: e.spec.Batch}
		for i := 0; i < e.spec.Batch; i++ {
			o := f.observation(rng, d, t0.Add(due))
			o.SensedAt = stamp.unique(t0.Add(due))
			obs = append(obs, o)
		}
		flushes = append(flushes, ev)
	}
	var probeDues []time.Time
	for _, due := range periodic(time.Duration(e.spec.ProbeEveryMs)*time.Millisecond, -e.warmup, e.window) {
		o := f.probeObservation(rng, stamp.unique(t0.Add(due)))
		probes = append(probes, event{due: due, kind: opProbe, first: len(obs), n: 1})
		obs = append(obs, o)
		probeDues = append(probeDues, t0.Add(due))
	}
	events := mergeEvents(flushes, probes)

	from, to := rollupRange(t0)
	probePath := "/v1/apps/" + appID + "/zones/" + f.probeZone + "/noise?" + rangeQuery(from, to)

	var seen []time.Time
	var probeErr error
	proberDone := make(chan struct{})
	go func() {
		defer close(proberDone)
		seen, probeErr = runProber(probeHTTP, probePath, probeDues)
	}()
	stopSampler := make(chan struct{})
	backlog := pub.backlogSampler(t0, t0.Add(e.window), stopSampler)
	edges := e.scheduleEdges(t0)

	var acked tally
	pc := realPacer(t0)
	pc.run(events, func(ev event, due time.Time, record bool) {
		u := pub.uploaders[ev.device]
		if ev.kind == opProbe {
			u = pub.probe
		}
		batch := obs[ev.first : ev.first+ev.n]
		err := pub.emit(u, batch)
		end := time.Now()
		if record {
			out.attempted++
			if err != nil || end.Sub(due) > opTimeout {
				out.failed++
			}
		}
		if err != nil {
			return
		}
		acked.add(batch)
		if record {
			out.ops.add(ev.due, float64(ev.n))
			if ev.kind == opFlush {
				out.secondary = append(out.secondary, sample{ev.due, end.Sub(due)})
			}
		}
	})
	out.lateness, out.blocked = pc.late, pc.blocked
	<-proberDone
	close(stopSampler)
	out.backlog = backlog()
	edges()
	if probeErr != nil {
		return nil, fmt.Errorf("freshness prober: %w", probeErr)
	}
	probesFound := 0
	for i, ev := range probes {
		if seen[i].IsZero() {
			if ev.due >= 0 {
				out.attempted++
				out.failed++
			}
			continue
		}
		probesFound++
		if ev.due >= 0 {
			out.attempted++
			out.primary = append(out.primary, sample{ev.due, seen[i].Sub(probeDues[i])})
			out.probes = append(out.probes, probeRecord{id: obs[ev.first].SensedAt.UnixNano(), due: probeDues[i], seen: seen[i]})
		}
	}
	out.oracle = append(out.oracle, check("every probe found", probesFound == len(probes),
		fmt.Sprintf("%d of %d probes became queryable", probesFound, len(probes))))

	if _, err := pub.waitDrained(30 * time.Second); err != nil {
		return nil, err
	}
	if out.burst, err = pub.closingBurst(e, rng, stamp, &acked); err != nil {
		return nil, err
	}
	out.oracle = append(out.oracle, storeOracle(probeHTTP, acked, from, to, f.probeZone)...)
	return out, nil
}

// watcher is the live-city worker 2: it reads every event of the live
// feed and matches it to the publish it came from.
type watcher struct {
	stream *sseClient
	// index maps a sensing instant to its observation's position; it is
	// complete before the first publish and read-only afterwards.
	index map[int64]int
	// recvAt[i] is when observation i's frame was read (0 = never);
	// wantKey[i] is the routing key it must carry.
	recvAt  []time.Time
	wantKey []string
	// got counts matched frames, for the straggler wait.
	got       atomic.Int64
	badFrames int
	done      chan struct{}
}

func (w *watcher) run() {
	defer close(w.done)
	for {
		payload, err := w.stream.next()
		if err != nil {
			return
		}
		now := time.Now()
		var ev goflow.LiveEvent
		var body struct {
			SensedAt time.Time `json:"sensedAt"`
		}
		if err := json.Unmarshal(payload, &ev); err != nil {
			w.badFrames++
			continue
		}
		if err := json.Unmarshal(ev.Body, &body); err != nil {
			w.badFrames++
			continue
		}
		i, ok := w.index[body.SensedAt.UnixNano()]
		if !ok {
			continue // closing-burst traffic
		}
		if ev.RoutingKey != w.wantKey[i] || !w.recvAt[i].IsZero() {
			w.badFrames++
			continue
		}
		w.recvAt[i] = now
		w.got.Add(1)
	}
}

// driveLiveCity: worker 1 publishes single observations (the v1.1
// client), worker 2 receives every one of them on the live feed.
func driveLiveCity(e *env, f *fleet) (*driveOut, error) {
	out := &driveOut{primaryName: "push", secondaryName: "ack", ops: opCounter{window: e.window}}
	if err := loginAll(e.target, f); err != nil {
		return nil, err
	}
	pub, err := newPublisher(e.target, f, 1)
	if err != nil {
		return nil, err
	}
	defer pub.conn.Close()

	rng := rand.New(rand.NewSource(e.seed))
	stamp := newStamper()
	t0 := time.Now().Add(e.warmup + 150*time.Millisecond)
	out.t0 = t0

	var obs []*sensing.Observation
	var events []event
	w := &watcher{index: make(map[int64]int), done: make(chan struct{})}
	for _, due := range arrivals(rng, e.spec.ObsPerSecond, -e.warmup, e.window) {
		d := rng.Intn(len(f.devices))
		o := f.observation(rng, d, t0.Add(due))
		o.SensedAt = stamp.unique(t0.Add(due))
		w.index[o.SensedAt.UnixNano()] = len(obs)
		w.wantKey = append(w.wantKey, client.RoutingKey(appID, f.devices[d].clientID, ""))
		events = append(events, event{due: due, kind: opFlush, device: d, first: len(obs), n: 1})
		obs = append(obs, o)
	}
	w.recvAt = make([]time.Time, len(obs))

	if w.stream, err = sseDial(e.base(), "/v1/live/sse?app="+appID+"&datatype=obs"); err != nil {
		return nil, fmt.Errorf("live stream: %w", err)
	}
	go w.run()
	defer func() {
		w.stream.close()
		<-w.done
	}()

	stopSampler := make(chan struct{})
	backlog := pub.backlogSampler(t0, t0.Add(e.window), stopSampler)
	edges := e.scheduleEdges(t0)

	var acked tally
	ackedInWindow := 0
	gotAck := make([]bool, len(obs))
	pc := realPacer(t0)
	pc.run(events, func(ev event, due time.Time, record bool) {
		err := pub.emit(pub.uploaders[ev.device], obs[ev.first:ev.first+1])
		end := time.Now()
		if record {
			out.attempted++
			if err != nil || end.Sub(due) > opTimeout {
				out.failed++
			}
		}
		if err != nil {
			return
		}
		acked.add(obs[ev.first : ev.first+1])
		gotAck[ev.first] = true
		if record {
			ackedInWindow++
			out.ops.add(ev.due, 1)
			out.secondary = append(out.secondary, sample{ev.due, end.Sub(due)})
		}
	})
	out.lateness, out.blocked = pc.late, pc.blocked
	close(stopSampler)
	out.backlog = backlog()
	edges()

	// Stragglers get a second to arrive before they count as lost.
	for deadline := time.Now().Add(time.Second); int(w.got.Load()) < acked.obs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if _, err := pub.waitDrained(30 * time.Second); err != nil {
		return nil, err
	}
	if out.burst, err = pub.closingBurst(e, rng, stamp, &acked); err != nil {
		return nil, err
	}

	// The stream is closed and its reader joined before recvAt is read.
	w.stream.close()
	<-w.done
	for i, ev := range events {
		if ev.due < 0 || !gotAck[i] {
			continue
		}
		out.pushAcked++
		out.attempted++
		if w.recvAt[i].IsZero() {
			out.pushLost++
			out.failed++
			continue
		}
		out.primary = append(out.primary, sample{ev.due, w.recvAt[i].Sub(t0.Add(ev.due))})
	}
	out.oracle = append(out.oracle, check("live events decode and carry the published routing key", w.badFrames == 0,
		fmt.Sprintf("%d malformed, duplicate or mis-keyed events; %d of %d window events received", w.badFrames, out.pushAcked-out.pushLost, ackedInWindow)))
	from, to := rollupRange(t0)
	oh := newHTTPConn(e.base())
	defer oh.close()
	out.oracle = append(out.oracle, storeOracle(oh, acked, from, to, f.probeZone)...)
	return out, nil
}
