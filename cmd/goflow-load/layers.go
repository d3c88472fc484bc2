package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/guard"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/wal"
)

// Direct timed calls (source D): each layer's public functions are
// called in isolation with the workload's own generated inputs, so a
// change to one layer shows here even where the end-to-end figure hides
// it behind an fsync. Each figure is the median of per-call timings (or
// of per-round means where a single call is too short to time).

// perCall times fn n times and returns the median call in unit.
func perCall(n int, unit time.Duration, fn func(i int)) float64 {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		fn(i)
		d[i] = time.Since(start)
	}
	return medianDuration(d, unit)
}

// perRound times rounds of size calls each — for calls near the clock's
// own cost — and returns the median per-call mean in unit.
func perRound(rounds, size int, unit time.Duration, fn func(i int)) float64 {
	means := make([]float64, rounds)
	for r := range means {
		start := time.Now()
		for i := 0; i < size; i++ {
			fn(r*size + i)
		}
		means[r] = float64(time.Since(start)) / float64(size) / float64(unit)
	}
	return median(means)
}

// layerInputs are the workload's own inputs handed to the direct calls.
type layerInputs struct {
	fleet *fleet
	seed  int64
	// storeDocs is how many documents the workload's store holds when
	// its reads and inserts run; the scratch store is filled to match.
	storeDocs int
	// requestsPer10s is how many HTTP requests the workload sends the
	// server in ten seconds: what the admission shedder's window holds.
	requestsPer10s int
	policy         wal.FsyncPolicy
	tmp            string
	// node, when set, is a live in-process node whose store and series
	// already hold the workload's data (dashboard-read): reads are timed
	// against it instead of a scratch copy.
	node  *tracedNode
	zones []string
}

// fsyncMicros times a raw 4 KiB write + fsync in dir: the floor under
// every durable figure of the run, and what makes numbers from two
// machines readable side by side.
func fsyncMicros(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var firstErr error
	us := perCall(64, time.Microsecond, func(int) {
		if _, err := f.Write(block); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return us, firstErr
}

func directLayerMetrics(in layerInputs) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, v float64, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }
	rng := rand.New(rand.NewSource(in.seed + 7))
	f := in.fleet
	now := time.Now()

	// A sample of the workload's observations, and their wire and
	// document forms.
	const sample = 2000
	obs := make([]*sensing.Observation, sample)
	bodies := make([][]byte, sample)
	for i := range obs {
		d := rng.Intn(len(f.devices))
		obs[i] = f.observation(rng, d, now.Add(-time.Duration(rng.Int63n(int64(time.Hour)))))
	}
	var encErr error
	put("client.encode_us_per_obs", "us", perRound(20, sample/20, time.Microsecond, func(i int) {
		b, err := obs[i].Encode()
		if err != nil {
			encErr = err
		}
		bodies[i] = b
	}), sample)
	if encErr != nil {
		return nil, encErr
	}
	put("sensing.decode_us", "us", perRound(20, sample/20, time.Microsecond, func(i int) {
		if _, err := sensing.DecodeObservation(bodies[i]); err != nil {
			encErr = err
		}
	}), sample)
	if encErr != nil {
		return nil, encErr
	}
	points := make([]series.Point, 0, sample)
	var located []*sensing.Observation
	for _, o := range obs {
		if o.Loc != nil {
			located = append(located, o)
		}
	}
	sink := 0
	put("geo.zone_id_ns", "ns", perRound(20, 1000, time.Nanosecond, func(i int) {
		sink += len(f.zones.ZoneID(located[i%len(located)].Loc.Point))
	}), 20000)
	_ = sink

	// mq: one publish routed in-process through the provisioned
	// topology E.<client> → SC → GFX → GF.
	broker := mq.NewBroker()
	defer broker.Close()
	channels, err := goflow.NewChannels(broker)
	if err != nil {
		return nil, err
	}
	if err := channels.ProvisionApp(appID); err != nil {
		return nil, err
	}
	ex, _, err := channels.ProvisionClient(appID, "bench-client")
	if err != nil {
		return nil, err
	}
	key := client.RoutingKey(appID, "bench-client", "")
	var pubErr error
	put("mq.broker_publish_ns", "ns", perRound(20, 1000, time.Nanosecond, func(i int) {
		if _, err := broker.PublishAt(ex, key, nil, bodies[i%sample], now); err != nil {
			pubErr = err
		}
	}), 20000)
	if pubErr != nil {
		return nil, pubErr
	}

	// guard: one pass through the ingest admission chain around an empty
	// handler. The shedder's cost grows with the requests it remembers
	// (a 10 s window), so it is first filled with as many as the workload
	// sends in that time.
	adm := goflow.NewAdmission(goflow.AdmissionConfig{})
	for i := 0; i < in.requestsPer10s; i++ {
		adm.Shedder().Observe(100 * time.Microsecond)
	}
	admit := adm.Guard(guard.ClassIngest, func(http.ResponseWriter, *http.Request) {})
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/"}, Header: http.Header{}, RemoteAddr: "127.0.0.1:1"}
	put("guard.admit_ns", "ns", perCall(200, time.Nanosecond, func(i int) {
		// Spread over the fleet so that every per-device bucket stays
		// within its burst: admission is timed, not refusal.
		req.Header.Set("X-Device-ID", f.devices[i%len(f.devices)].profile.ID)
		admit(discardWriter{}, req)
	}), 200)

	// docstore: documents in the server's own stored shape, obtained by
	// running the sample through the data manager once.
	accounts, err := goflow.NewAccounts()
	if err != nil {
		return nil, err
	}
	shape := docstore.NewStore()
	dm := goflow.NewDataManager(shape, accounts, f.zones)
	for _, o := range obs {
		if _, err := dm.Ingest(appID, "bench-client", o, now); err != nil {
			return nil, err
		}
	}
	stored, err := shape.Collection(goflow.ObservationsCollection).Find(nil, docstore.FindOptions{})
	if err != nil {
		return nil, err
	}
	fresh := func(i int) docstore.Doc {
		src := stored[i%len(stored)]
		d := make(docstore.Doc, len(src))
		for k, v := range src {
			if k != docstore.IDField {
				d[k] = v
			}
		}
		return d
	}
	scratch := docstore.NewStore()
	goflow.NewDataManager(scratch, accounts, f.zones) // the server's seven indexes
	col := scratch.Collection(goflow.ObservationsCollection)
	for filled := 0; filled < in.storeDocs; {
		batch := make([]docstore.Doc, min(1000, in.storeDocs-filled))
		for i := range batch {
			batch[i] = fresh(filled + i)
		}
		if _, err := col.InsertMany(batch); err != nil {
			return nil, err
		}
		filled += len(batch)
	}
	var dsErr error
	put("docstore.insert_us", "us", perRound(20, 100, time.Microsecond, func(i int) {
		if _, err := col.Insert(fresh(i)); err != nil {
			dsErr = err
		}
	}), 2000)
	put("docstore.insert_many_us_per_doc", "us", perCall(40, time.Microsecond, func(i int) {
		batch := make([]docstore.Doc, 50)
		for j := range batch {
			batch[j] = fresh(i*50 + j)
		}
		if _, err := col.InsertMany(batch); err != nil {
			dsErr = err
		}
	})/50, 40)
	one := &docstore.Mutation{Op: docstore.OpInsert, Collection: goflow.ObservationsCollection, ID: "x", Doc: stored[0]}
	var payload []byte
	put("docstore.encode_mutation_us", "us", perRound(20, 50, time.Microsecond, func(i int) {
		one.Doc = stored[i%len(stored)]
		p, err := docstore.EncodeMutation(one)
		if err != nil {
			dsErr = err
		}
		payload = p
	}), 1000)
	many := &docstore.Mutation{Op: docstore.OpInsertMany, Collection: goflow.ObservationsCollection}
	put("docstore.encode_mutation_us_per_doc.batch50", "us", perCall(40, time.Microsecond, func(i int) {
		many.Docs = stored[(i*50)%(len(stored)-50):][:50]
		if _, err := docstore.EncodeMutation(many); err != nil {
			dsErr = err
		}
	})/50, 40)

	// Reads run at the workload's store size: against the live node's
	// store when there is one, the filled scratch store otherwise.
	readCol, zones := col, in.zones
	if in.node != nil {
		readCol = in.node.local.Store().Collection(goflow.ObservationsCollection)
	}
	if len(zones) == 0 {
		seen := map[string]bool{}
		for _, d := range stored {
			if z, _ := d["zone"].(string); z != "" && !seen[z] {
				seen[z] = true
				zones = append(zones, z)
			}
		}
	}
	ctx := context.Background()
	put("docstore.find_zone_us", "us", perCall(200, time.Microsecond, func(i int) {
		filter := docstore.Doc{"appId": appID, "zone": zones[i%len(zones)]}
		if _, err := readCol.FindContext(ctx, filter, docstore.FindOptions{SortField: "sensedAt", Limit: 100}); err != nil {
			dsErr = err
		}
	}), 200)
	put("docstore.count_us", "us", perCall(200, time.Microsecond, func(i int) {
		if _, err := readCol.CountContext(ctx, docstore.Doc{"appId": appID, "zone": zones[i%len(zones)]}); err != nil {
			dsErr = err
		}
	}), 200)
	if dsErr != nil {
		return nil, dsErr
	}

	// wal: append one encoded mutation and wait for it, one writer, the
	// workload's own fsync policy.
	walDir := filepath.Join(in.tmp, "wal-direct")
	w, err := wal.Open(walDir, wal.Options{Policy: in.policy})
	if err != nil {
		return nil, err
	}
	var walErr error
	put("wal.append_wait_us", "us", perCall(200, time.Microsecond, func(int) {
		t, err := w.Append(byte(docstore.OpInsert), payload)
		if err == nil {
			err = t.Wait()
		}
		if err != nil {
			walErr = err
		}
	}), 200)
	if err := w.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if walErr != nil {
		return nil, walErr
	}
	fs, err := fsyncMicros(in.tmp)
	if err != nil {
		return nil, err
	}
	put("env.fsync_us", "us", fs, 64)

	// series: append cost on a fresh DB; queries against the live
	// node's view when there is one, else a DB holding a day of points
	// over the grid. Small chunks make the scratch DB seal, so bytes per
	// point can be read off it.
	for _, d := range stored {
		if p, ok := series.PointFromObservation(d); ok {
			points = append(points, p)
		}
	}
	appendDB := series.New(series.Options{})
	lsn := uint64(0)
	put("series.append_us_per_point", "us", perRound(20, 500, time.Microsecond, func(i int) {
		lsn++
		appendDB.Append(lsn, points[i%len(points)])
	}), 10000)

	day := series.New(series.Options{MaxChunkPoints: 4096})
	for i := 0; i < 100000; i++ {
		p := points[i%len(points)]
		p.TS = now.Add(-time.Duration(rng.Int63n(int64(24 * time.Hour)))).UnixMilli()
		lsn++
		day.Append(lsn, p)
	}
	if st := day.Stats(); st.SealedChunks > 0 {
		sealedPoints := float64(st.SealedChunks) * 4096
		put("series.bytes_per_point", "B", float64(st.SealedBytes)/sealedPoints, int(sealedPoints))
	}
	queryDB := day
	if in.node != nil {
		queryDB = in.node.local.Series()
	}
	var qErr error
	put("series.zone_agg_us", "us", perCall(200, time.Microsecond, func(i int) {
		if _, err := queryDB.ZoneAggregate(ctx, zones[i%len(zones)], now.Add(-time.Hour), now); err != nil {
			qErr = err
		}
	}), 200)
	put("series.noisemap_us", "us", perCall(50, time.Microsecond, func(int) {
		if _, err := queryDB.Noisemap(ctx, now.Add(-24*time.Hour), now); err != nil {
			qErr = err
		}
	}), 50)
	return out, qErr
}

// discardWriter is the least http.ResponseWriter an admitted empty
// handler needs.
type discardWriter struct{}

func (discardWriter) Header() http.Header         { return http.Header{} }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}
