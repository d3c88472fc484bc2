package goflow_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (Figures 4, 8-21), regenerating the
// figure's data on every iteration, plus ablation benches for the
// design choices called out in DESIGN.md and micro-benchmarks of the
// substrates on the crowd-sensing hot path.
//
// Run all:   go test -bench=. -benchmem .
// Figures:   go test -bench=Fig .
// Ablations: go test -bench=Ablation .

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/adaptive"
	"github.com/urbancivics/goflow/internal/analysis"
	"github.com/urbancivics/goflow/internal/assim"
	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/device"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/experiment"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
)

// benchScale keeps per-iteration figure regeneration fast while large
// enough for stable distributions.
const benchScale = 0.002

var (
	_datasetOnce sync.Once
	_dataset     *experiment.Dataset
	_datasetErr  error
)

// benchDataset generates the shared simulated deployment once.
func benchDataset(b *testing.B) *experiment.Dataset {
	b.Helper()
	_datasetOnce.Do(func() {
		_dataset, _datasetErr = experiment.NewDataset(benchScale, 42)
	})
	if _datasetErr != nil {
		b.Fatal(_datasetErr)
	}
	return _dataset
}

// requirePass fails the benchmark if a figure's shape checks broke —
// the benches double as regression gates on the reproduction.
func requirePass(b *testing.B, r *experiment.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			b.Fatalf("%s: shape check %q failed: %s", r.ID, c.Name, c.Detail)
		}
	}
}

// --- One benchmark per table/figure -------------------------------

func BenchmarkFig04NoiseComplaints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig04(int64(i))
		requirePass(b, r, err)
	}
}

func BenchmarkFig08Contributions(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig08(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig09TopModels(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig09(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig10AccuracyAll(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig10(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig11AccuracyGPS(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig11(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig12AccuracyNetwork(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig12(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig13AccuracyFused(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig13(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig14SPLPerModel(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig14(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig15SPLPerUser(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig15(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig16Battery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig16()
		requirePass(b, r, err)
	}
}

func BenchmarkFig17Delay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig17(42)
		requirePass(b, r, err)
	}
}

func BenchmarkFig18Daily(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig18(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig19DailyPerUser(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig19(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig20Providers(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig20(ds)
		requirePass(b, r, err)
	}
}

func BenchmarkFig21Activity(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig21(ds)
		requirePass(b, r, err)
	}
}

// --- Ablations ------------------------------------------------------

// BenchmarkAblationBufferSize sweeps the client buffer length and
// reports the energy/delay tradeoff curve the paper's Section 7
// recommends tuning per application: battery depletion (percent of a
// full charge over the 7 h run) and the share of deliveries later
// than two hours.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int{1, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("buffer=%d", size), func(b *testing.B) {
			var depletion, late float64
			for i := 0; i < b.N; i++ {
				out, err := device.RunBattery(device.BatteryRunConfig{
					MPS: true, Network: device.WiFi, BufferSize: size,
				})
				if err != nil {
					b.Fatal(err)
				}
				depletion = out.DepletionPercent
				records, err := device.SimulateTransmission(device.TransmissionConfig{
					Devices: 20, Days: 7, BufferSize: size, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				dist := device.DelayDistribution(records)
				late = dist[len(dist)-1]
			}
			b.ReportMetric(depletion, "battery%")
			b.ReportMetric(late*100, "late>2h%")
		})
	}
}

// BenchmarkAblationTopicVsFanout compares the broker's routing
// disciplines under the crowd-sensing key shape: the topic filtering
// that channel management relies on versus plain fanout. Each queue
// subscribes to its own zone, and publishes cycle over ten zones, so
// the matching set stays constant while the binding count grows —
// with the compiled trie and route cache, topic publish cost must not
// scale with the number of non-matching bindings (the naive scan
// did), while fanout inherently delivers to every binding.
func BenchmarkAblationTopicVsFanout(b *testing.B) {
	run := func(b *testing.B, typ mq.ExchangeType, bindings int) {
		broker := mq.NewBroker()
		defer broker.Close()
		if err := broker.DeclareExchange("x", typ); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < bindings; q++ {
			name := fmt.Sprintf("q%03d", q)
			if err := broker.DeclareQueue(name, mq.QueueOptions{MaxLen: 100}); err != nil {
				b.Fatal(err)
			}
			p := ""
			if typ == mq.Topic {
				p = fmt.Sprintf("SC.*.obs.Z%03d", q)
			}
			if err := broker.BindQueue(name, "x", p); err != nil {
				b.Fatal(err)
			}
		}
		keys := make([]string, 1000)
		for i := range keys {
			keys[i] = fmt.Sprintf("SC.mob%d.obs.Z%03d", i%100, i%10)
		}
		body := []byte(`{"spl":61.5}`)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := broker.PublishAt("x", keys[i%len(keys)], nil, body, time.Now()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, bindings := range []int{50, 500} {
		bindings := bindings
		b.Run(fmt.Sprintf("topic/bindings=%d", bindings), func(b *testing.B) { run(b, mq.Topic, bindings) })
		b.Run(fmt.Sprintf("fanout/bindings=%d", bindings), func(b *testing.B) { run(b, mq.Fanout, bindings) })
	}
}

// BenchmarkAblationAssimObsCount sweeps the number of assimilated
// observations and reports the residual map error — the paper's
// "enough contributed measures overcome low sensor accuracy" claim.
func BenchmarkAblationAssimObsCount(b *testing.B) {
	for _, n := range []int{25, 100, 400, 1000} {
		b.Run(fmt.Sprintf("obs=%d", n), func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				res, err := assim.RunTwin(assim.TwinConfig{
					Rows: 24, Cols: 24,
					BackgroundBias:  4,
					BackgroundNoise: 2,
					NumObservations: n,
					ObsNoise:        3,
					Seed:            9,
				})
				if err != nil {
					b.Fatal(err)
				}
				improvement = res.Improvement
			}
			b.ReportMetric(improvement*100, "errRemoved%")
		})
	}
}

// BenchmarkAblationCalibration compares assimilation with calibrated
// sensors against uncalibrated (per-model bias left in), quantifying
// the value of the Section 5.2 calibration database.
func BenchmarkAblationCalibration(b *testing.B) {
	run := func(b *testing.B, bias float64) {
		var rmse float64
		for i := 0; i < b.N; i++ {
			res, err := assim.RunTwin(assim.TwinConfig{
				Rows: 24, Cols: 24,
				BackgroundBias:  3,
				BackgroundNoise: 2,
				NumObservations: 300,
				ObsNoise:        3,
				ObsBias:         bias,
				Seed:            11,
			})
			if err != nil {
				b.Fatal(err)
			}
			rmse = res.AnalysisRMSE
		}
		b.ReportMetric(rmse, "rmse(dB)")
	}
	b.Run("calibrated", func(b *testing.B) { run(b, 0) })
	b.Run("uncalibrated", func(b *testing.B) { run(b, 8) })
}

// --- Substrate micro-benchmarks on the crowd-sensing hot path -------

// BenchmarkBrokerPublishTopicChain measures one publish through the
// full Figure 3 exchange chain (client -> app -> GoFlow -> queue).
func BenchmarkBrokerPublishTopicChain(b *testing.B) {
	broker := mq.NewBroker()
	defer broker.Close()
	channels, err := goflow.NewChannels(broker)
	if err != nil {
		b.Fatal(err)
	}
	if err := channels.ProvisionApp("SC"); err != nil {
		b.Fatal(err)
	}
	ex, _, err := channels.ProvisionClient("SC", "mob1")
	if err != nil {
		b.Fatal(err)
	}
	// Drain the GoFlow queue so it does not grow unbounded.
	consumer, err := broker.Consume(goflow.GoFlowQueue, 0)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range consumer.C() {
			if err := consumer.Ack(d.Tag); err != nil {
				return
			}
		}
	}()
	body := []byte(`{"spl":61.5,"deviceModel":"LGE NEXUS 5"}`)
	key := client.RoutingKey("SC", "mob1", "FR75013")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := broker.PublishAt(ex, key, nil, body, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	consumer.Cancel()
	<-done
}

// BenchmarkBrokerPublishBatch measures the batch publish path through
// the same Figure 3 chain: one PublishBatch call per `size` messages,
// ns/op per message. Against BenchmarkBrokerPublishTopicChain this
// reads as the saving of batching route lookups and queue lock
// crossings.
func BenchmarkBrokerPublishBatch(b *testing.B) {
	for _, size := range []int{10, 50} {
		size := size
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			broker := mq.NewBroker()
			defer broker.Close()
			channels, err := goflow.NewChannels(broker)
			if err != nil {
				b.Fatal(err)
			}
			if err := channels.ProvisionApp("SC"); err != nil {
				b.Fatal(err)
			}
			ex, _, err := channels.ProvisionClient("SC", "mob1")
			if err != nil {
				b.Fatal(err)
			}
			consumer, err := broker.Consume(goflow.GoFlowQueue, 0)
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for d := range consumer.C() {
					if err := consumer.Ack(d.Tag); err != nil {
						return
					}
				}
			}()
			body := []byte(`{"spl":61.5,"deviceModel":"LGE NEXUS 5"}`)
			key := client.RoutingKey("SC", "mob1", "FR75013")
			at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
			items := make([]mq.PublishItem, size)
			for i := range items {
				items[i] = mq.PublishItem{RoutingKey: key, Body: body, At: at}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i += size {
				n := size
				if rem := b.N - i; rem < n {
					n = rem
				}
				if _, err := broker.PublishBatch(ex, items[:n]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			consumer.Cancel()
			<-done
		})
	}
}

// ingestResetEvery bounds the store size during ingest benchmarks: a
// fresh server/store replaces the filled one (outside the timer) so
// every variant measures steady-state ingest cost at a bounded
// collection size instead of an ever-growing heap whose GC-scan cost
// depends on b.N.
const ingestResetEvery = 1 << 15

// freshIngestServer builds a GoFlow server with an empty store and the
// SoundCity app registered.
func freshIngestServer(b *testing.B) *goflow.Server {
	b.Helper()
	broker := mq.NewBroker()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := soundcity.Register(server); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		server.Shutdown()
		broker.Close()
	})
	return server
}

func benchObservation() *sensing.Observation {
	return &sensing.Observation{
		UserID:             "u1",
		DeviceModel:        "LGE NEXUS 5",
		Mode:               sensing.Opportunistic,
		SPL:                61.5,
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC),
	}
}

// BenchmarkIngestPipeline measures the server-side ingest path:
// validate, anonymize, store, account. The "permessage" variant
// drives the pre-batching chain — one Ingest plus one analytics
// record per observation, exactly what the broker consumer loop does
// per delivery — while the batch=N variants go through BulkIngest.
// ns/op is per observation in every variant, so permessage against
// batch=50 reads directly as the amortization of the store lock,
// anonymization, analytics and defensive-copy work.
func BenchmarkIngestPipeline(b *testing.B) {
	b.Run("permessage", func(b *testing.B) {
		server := freshIngestServer(b)
		obs := benchObservation()
		b.ResetTimer()
		b.ReportAllocs()
		nextReset := ingestResetEvery
		for i := 0; i < b.N; i++ {
			if i >= nextReset {
				b.StopTimer()
				server = freshIngestServer(b)
				nextReset = i + ingestResetEvery
				b.StartTimer()
			}
			if _, err := server.Data.Ingest(soundcity.AppID, "c1", obs, obs.SensedAt); err != nil {
				b.Fatal(err)
			}
			server.Analytics.RecordIngest(soundcity.AppID, server.Accounts.Anonymize("c1"), obs.DeviceModel, obs.Localized(), obs.SensedAt)
		}
	})
	for _, batch := range []int{1, 10, 50, 100} {
		batch := batch
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			server := freshIngestServer(b)
			run := make([]*sensing.Observation, batch)
			for i := range run {
				run[i] = benchObservation()
			}
			b.ResetTimer()
			b.ReportAllocs()
			nextReset := ingestResetEvery
			for i := 0; i < b.N; i += batch {
				if i >= nextReset {
					b.StopTimer()
					server = freshIngestServer(b)
					nextReset = i + ingestResetEvery
					b.StartTimer()
				}
				n := batch
				if rem := b.N - i; rem < n {
					n = rem
				}
				if _, err := server.BulkIngest(soundcity.AppID, "c1", run[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUploaderFlush measures the client emission policy with a
// null transport.
func BenchmarkUploaderFlush(b *testing.B) {
	tr := &client.RecordingTransport{}
	up, err := client.NewUploader(client.Config{
		ClientID: "c1", AppID: "SC", Version: "1.3", BufferSize: 10,
	}, tr)
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := &sensing.Observation{
			UserID:             "u1",
			DeviceModel:        "LGE NEXUS 5",
			Mode:               sensing.Opportunistic,
			SPL:                61.5,
			Activity:           sensing.ActivityStill,
			ActivityConfidence: 0.9,
			SensedAt:           at,
		}
		if err := up.Record(o); err != nil {
			b.Fatal(err)
		}
		if _, err := up.Flush(at, true); err != nil {
			b.Fatal(err)
		}
		if len(tr.Records) > 1<<16 {
			tr.Records = tr.Records[:0]
		}
	}
}

// BenchmarkBLUEAnalyze measures one assimilation analysis at city
// scale.
func BenchmarkBLUEAnalyze(b *testing.B) {
	city, err := assim.RandomCity(assim.CityConfig{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	background, err := city.NoiseField(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	var obs []assim.Observation
	for i := 0; i < 300; i++ {
		p := background.CellCenter(i%32, (i*7)%32)
		v, _ := background.Sample(p)
		obs = append(obs, assim.Observation{At: p, ValueDB: v + 2, SigmaDB: 3})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := assim.Analyze(background, obs, assim.DefaultBLUEParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetGenerate measures full observation-set generation.
func BenchmarkFleetGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fleet, err := device.NewFleet(device.GeneratorConfig{Scale: 0.001, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		obs, err := fleet.GenerateAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(obs) == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkAnalysisHourly measures the hourly-distribution pass over
// the shared dataset.
func BenchmarkAnalysisHourly(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.HourlyDistribution(ds.Observations)
	}
}

// --- Future-work extensions (paper Section 8) ------------------------

// BenchmarkCrowdCalibration measures the crowd-calibration median
// polish over the simulated fleet's raw observations and reports the
// worst per-model recovery error against the catalog truth.
func BenchmarkCrowdCalibration(b *testing.B) {
	ds := benchDataset(b)
	anchorModel := "SAMSUNG GT-I9505"
	anchor, err := device.ModelByName(anchorModel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := sensing.CrowdCalibrate(ds.Observations, sensing.CrowdCalOptions{
			Anchors: map[string]float64{anchorModel: anchor.Mic.BiasDB},
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, m := range device.TopModels() {
			e := res.Biases[m.Name] - m.Mic.BiasDB
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
		}
		if worst > 2.0 {
			b.Fatalf("crowd-calibration error %.2f dB exceeds 2 dB", worst)
		}
	}
	b.ReportMetric(worst, "maxErr(dB)")
}

// BenchmarkAblationStreamVsFullBLUE compares streaming assimilation
// (batched, constant memory) against the one-shot joint analysis on
// identical observations, reporting the accuracy gap.
func BenchmarkAblationStreamVsFullBLUE(b *testing.B) {
	city, err := assim.RandomCity(assim.CityConfig{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	background, err := city.NoiseField(24, 24)
	if err != nil {
		b.Fatal(err)
	}
	params := assim.BLUEParams{SigmaB: 6, CorrLengthM: 600}
	var obs []assim.Observation
	for i := 0; i < 240; i++ {
		p := background.CellCenter(i%24, (i*7)%24)
		v, _ := background.Sample(p)
		obs = append(obs, assim.Observation{At: p, ValueDB: v + 3, SigmaDB: 3})
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assim.Analyze(background, obs, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-batch60", func(b *testing.B) {
		var gap float64
		for i := 0; i < b.N; i++ {
			full, err := assim.Analyze(background, obs, params)
			if err != nil {
				b.Fatal(err)
			}
			stream, err := assim.NewStreamAnalyzer(background, params, 60)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range obs {
				if err := stream.Add(o); err != nil {
					b.Fatal(err)
				}
			}
			got, err := stream.Current()
			if err != nil {
				b.Fatal(err)
			}
			gap, err = assim.RMSE(got, full)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(gap, "gapRMSE(dB)")
	})
}

// BenchmarkAblationAdaptiveScheduling compares periodic and
// variance-driven sensing at equal budgets, reporting residual map
// uncertainty (coverage; lower is better) and measurements spent.
func BenchmarkAblationAdaptiveScheduling(b *testing.B) {
	var periodic, adaptiveRes adaptive.StrategyResult
	for i := 0; i < b.N; i++ {
		var err error
		periodic, adaptiveRes, err = adaptive.CompareStrategies(adaptive.CompareConfig{
			Walkers:         15,
			StepsPerWalker:  80,
			BudgetPerWalker: 10,
			GridRows:        12,
			GridCols:        12,
			Seed:            int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(periodic.Coverage, "periodicUncert")
	b.ReportMetric(adaptiveRes.Coverage, "adaptiveUncert")
	b.ReportMetric(float64(periodic.Measurements), "periodicObs")
	b.ReportMetric(float64(adaptiveRes.Measurements), "adaptiveObs")
}

// BenchmarkExportNDJSON measures the streaming export path.
func BenchmarkExportNDJSON(b *testing.B) {
	broker := mq.NewBroker()
	defer broker.Close()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Shutdown()
	if _, err := soundcity.Register(server); err != nil {
		b.Fatal(err)
	}
	ds := benchDataset(b)
	limit := 5000
	if len(ds.Observations) < limit {
		limit = len(ds.Observations)
	}
	if _, err := server.BulkIngest(soundcity.AppID, "c1", ds.Observations[:limit]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := server.Data.Export(context.Background(), io.Discard, soundcity.AppID, soundcity.AppID, goflow.Query{}, goflow.NDJSON)
		if err != nil || n != limit {
			b.Fatalf("export = %d, %v", n, err)
		}
	}
}

// BenchmarkAblationPiggyback compares fixed-period background sensing
// against piggyback sensing (ride the user's own screen-on sessions),
// reporting energy per measurement for both.
func BenchmarkAblationPiggyback(b *testing.B) {
	var periodic, piggy device.PiggybackResult
	for i := 0; i < b.N; i++ {
		var err error
		periodic, piggy, err = device.SimulatePiggyback(device.PiggybackConfig{Days: 7, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(periodic.EnergyPerMeasurement*1000, "periodic_m%/obs")
	b.ReportMetric(piggy.EnergyPerMeasurement*1000, "piggy_m%/obs")
	b.ReportMetric(float64(piggy.Measurements), "piggyObs")
	b.ReportMetric(float64(periodic.Measurements), "periodicObs")
}

// BenchmarkAblationDeferToWiFi compares always-send against the
// defer-to-WiFi upload policy: cellular batches avoided versus mean
// delivery delay added.
func BenchmarkAblationDeferToWiFi(b *testing.B) {
	var always, deferred device.WiFiDeferResult
	for i := 0; i < b.N; i++ {
		var err error
		always, deferred, err = device.SimulateWiFiDefer(device.WiFiDeferConfig{Devices: 25, Days: 7, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(always.CellularBatches)/float64(always.Batches)*100, "always_cell%")
	b.ReportMetric(float64(deferred.CellularBatches)/float64(deferred.Batches)*100, "defer_cell%")
	b.ReportMetric(always.MeanDelay.Minutes(), "always_delay(min)")
	b.ReportMetric(deferred.MeanDelay.Minutes(), "defer_delay(min)")
}

// BenchmarkAblationTrustDiscovery measures contributor truth
// discovery over the simulated fleet and reports weight statistics —
// a healthy crowd's weights concentrate near 1.
func BenchmarkAblationTrustDiscovery(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var res *sensing.TrustResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sensing.EstimateTrust(ds.Observations, sensing.TrustOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	minW, maxW := 1.0, 1.0
	for _, w := range res.Weights {
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	b.ReportMetric(float64(len(res.Weights)), "users")
	b.ReportMetric(minW, "minWeight")
	b.ReportMetric(maxW, "maxWeight")
}

// --- Observability micro-benchmarks ---------------------------------

// BenchmarkObsCounter measures a labeled counter increment — the cost
// paid per broker event when instrumentation is attached.
func BenchmarkObsCounter(b *testing.B) {
	reg := obs.NewRegistry()
	vec := reg.CounterVec("bench_events_total", "bench", "queue")
	b.Run("cached-child", func(b *testing.B) {
		c := vec.With("goflow")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("with-lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vec.With("goflow").Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := vec.With("client")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// BenchmarkObsHistogram measures one latency observation against the
// default bucket layout.
func BenchmarkObsHistogram(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_duration_seconds", "bench", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.0001)
	}
}

// BenchmarkBrokerPublishInstrumented runs a single-queue publish loop.
// There is no bare variant: the broker's own atomics are the only
// count of each publish, and /metrics reads them at scrape, off this
// path (DESIGN.md §5, "Hot-path cost").
func BenchmarkBrokerPublishInstrumented(b *testing.B) {
	broker := mq.NewBroker()
	defer broker.Close()
	if err := broker.DeclareExchange("x", mq.Direct); err != nil {
		b.Fatal(err)
	}
	if err := broker.DeclareQueue("q", mq.QueueOptions{MaxLen: 100}); err != nil {
		b.Fatal(err)
	}
	if err := broker.BindQueue("q", "x", "k"); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"spl":61.5}`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := broker.PublishAt("x", "k", nil, body, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
}
