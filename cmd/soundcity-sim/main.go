// Command soundcity-sim runs the scaled 10-month SoundCity deployment
// end to end: it builds the device fleet, generates the crowd's
// observations, ingests them into a GoFlow server through the real
// pipeline, and prints the server-side analytics together with a
// sample quantified-self exposure report.
//
// Usage:
//
//	soundcity-sim [-scale 0.01] [-seed 42] [-broker-sample 500]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"github.com/urbancivics/goflow/internal/assim"
	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/device"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.01, "fraction of the published study to simulate")
	seed := flag.Int64("seed", 42, "random seed")
	brokerSample := flag.Int("broker-sample", 500, "observations routed through the real broker path (rest bulk-ingested)")
	metricsInterval := flag.Duration("metrics-interval", 5*time.Second, "period between metric snapshot log lines (0 disables)")
	flag.Parse()

	start := time.Now()
	broker := mq.NewBroker()
	defer broker.Close()
	store := docstore.NewStore()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		return err
	}
	defer server.Shutdown()

	// Instrument the whole pipeline and narrate progress while the
	// simulation runs.
	reg := obs.NewRegistry()
	goflow.Instrument(reg, server, store)
	reporter := obs.NewReporter(reg, *metricsInterval, nil)
	reporter.Start()
	defer reporter.Stop()
	if _, err := soundcity.Register(server); err != nil {
		return err
	}
	if err := server.StartIngest(); err != nil {
		return err
	}

	fleet, err := device.NewFleet(device.GeneratorConfig{Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	observations, err := fleet.GenerateAll()
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d devices over %d models; %d observations generated\n",
		len(fleet.Devices), 20, len(observations))

	// Route a sample through the full broker path (client exchange ->
	// app exchange -> GoFlow queue -> ingest loop) to exercise the
	// production pipeline, and bulk-ingest the rest.
	cl, err := server.Login(soundcity.AppID)
	if err != nil {
		return err
	}
	transport := client.NewMQTransport(broker, cl.Exchange, soundcity.AppID, cl.ID)
	uploader, err := client.NewUploader(client.Config{
		ClientID:   cl.ID,
		AppID:      soundcity.AppID,
		Version:    "1.3",
		BufferSize: 10,
	}, transport)
	if err != nil {
		return err
	}
	// The uploader counts for itself; its Stats are read at every
	// scrape, from the reporter's goroutine too.
	clientRecorded := reg.Counter("client_recorded_total", "Observations recorded by the simulated uploader.")
	clientSent := reg.Counter("client_sent_total", "Observations emitted by the simulated uploader.")
	clientFailed := reg.Counter("client_failed_flushes_total", "Failed emission attempts of the simulated uploader.")
	reg.OnCollect(func() {
		st := uploader.Stats()
		clientRecorded.Set(uint64(st.Recorded))
		clientSent.Set(uint64(st.Sent))
		clientFailed.Set(uint64(st.FailedFlushes))
	})
	n := *brokerSample
	if n > len(observations) {
		n = len(observations)
	}
	for _, o := range observations[:n] {
		if err := uploader.Record(cloneObs(o)); err != nil {
			return err
		}
		if _, err := uploader.Flush(o.SensedAt, true); err != nil {
			return err
		}
	}
	if _, err := uploader.Flush(time.Now(), true); err != nil {
		return err
	}
	if err := server.WaitIdle(30 * time.Second); err != nil {
		return err
	}
	// Bulk-ingest the remainder, attributing each observation to its
	// simulated contributor.
	if _, err := server.BulkIngest(soundcity.AppID, "sim-loader", observations[n:]); err != nil {
		return err
	}

	summary := server.Analytics.Summary()
	fmt.Printf("server: %d observations ingested, %d rejected\n", summary.Ingested, summary.Rejected)
	appStats, _ := server.Analytics.ForApp(soundcity.AppID)
	fmt.Printf("server: %d localized (%.1f%%)\n", appStats.Localized,
		100*float64(appStats.Localized)/float64(appStats.Ingested))

	// Per-model ranking, the Figure 9 view from the server's
	// analytics component.
	type modelCount struct {
		name string
		n    uint64
	}
	ranking := make([]modelCount, 0, len(appStats.ByModel))
	for m, c := range appStats.ByModel {
		ranking = append(ranking, modelCount{m, c})
	}
	sort.Slice(ranking, func(i, j int) bool { return ranking[i].n > ranking[j].n })
	fmt.Println("top models by contributions:")
	for i, mc := range ranking {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-20s %d\n", mc.name, mc.n)
	}

	// Quantified self: exposure report of the most prolific user.
	perUser := make(map[string]int)
	for _, o := range observations {
		perUser[o.UserID]++
	}
	topUser, topCount := "", 0
	for u, c := range perUser {
		if c > topCount {
			topUser, topCount = u, c
		}
	}
	calib := sensing.NewCalibrationDB()
	for _, m := range device.TopModels() {
		if err := calib.Add(sensing.CalibrationEntry{Model: m.Name, BiasDB: m.Mic.BiasDB, Source: "party", At: time.Now()}); err != nil {
			return err
		}
	}
	report, err := soundcity.BuildExposureReport(topUser, observations, calib)
	if err != nil {
		return err
	}
	fmt.Printf("exposure report for %s (%d observations):\n", topUser, topCount)
	for _, m := range report.Monthly {
		fmt.Printf("  %s  LAeq %.1f dB(A)  band=%s  days=%d\n", m.Month, m.LAeqDB, m.Band, m.Days)
	}

	// Background job: the server-side crowd-calibration over the
	// stored data (Section 8's crowd-calibration, as a GoFlow job).
	jobID, err := server.Jobs.Submit(soundcity.AppID, "crowd-calibrate")
	if err != nil {
		return err
	}
	server.Jobs.Wait()
	job, err := server.Jobs.Status(jobID)
	if err != nil {
		return err
	}
	if job.State != goflow.JobDone {
		return fmt.Errorf("crowd-calibrate job %s: %s", job.State, job.Error)
	}
	fmt.Printf("crowd-calibrate job: %v\n", job.Result)

	// Contributor trustworthiness over the raw observations.
	trust, err := sensing.EstimateTrust(observations, sensing.TrustOptions{Calibration: calib})
	if err != nil {
		return err
	}
	lowTrust := 0
	for _, w := range trust.Weights {
		if w < 0.5 {
			lowTrust++
		}
	}
	fmt.Printf("trust discovery: %d contributors weighted, %d below 0.5 (healthy crowd)\n",
		len(trust.Weights), lowTrust)

	// Close the loop: assimilate the calibrated, localized crowd
	// observations into a city noise map and report the correction.
	if err := assimilateMap(observations, calib, trust, *seed); err != nil {
		return err
	}

	fmt.Printf("metrics: %s\n", reg.Summary())
	fmt.Fprintf(os.Stdout, "done in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// assimilateMap runs the data assimilation engine over the crowd's
// localized observations: the city model field is corrected by the
// calibrated, trust-weighted measurements.
func assimilateMap(observations []*sensing.Observation, calib *sensing.CalibrationDB, trust *sensing.TrustResult, seed int64) error {
	city, err := assim.RandomCity(assim.CityConfig{Seed: seed})
	if err != nil {
		return err
	}
	background, err := city.NoiseField(32, 32)
	if err != nil {
		return err
	}
	stream, err := assim.NewStreamAnalyzer(background, assim.DefaultBLUEParams(), 300)
	if err != nil {
		return err
	}
	assimilated := 0
	for _, o := range observations {
		if o.Loc == nil || o.Loc.AccuracyM > 50 {
			continue // only well-localized observations correct the map
		}
		level, err := calib.Calibrate(o)
		if err != nil {
			continue
		}
		if err := stream.Add(assim.Observation{
			At:      o.Loc.Point,
			ValueDB: level,
			SigmaDB: trust.ObservationSigma(o.UserID, 3),
		}); err != nil {
			return err
		}
		assimilated++
		if assimilated >= 3000 {
			break // a day's worth is plenty for the demo map
		}
	}
	analysis, err := stream.Current()
	if err != nil {
		return err
	}
	shift, err := assim.RMSE(analysis, background)
	if err != nil {
		return err
	}
	minB, _, meanB := background.Stats()
	minA, _, meanA := analysis.Stats()
	fmt.Printf("assimilation: %d localized observations merged; model mean %.1f dB -> analysis mean %.1f dB (min %.1f -> %.1f, field shift RMS %.2f dB)\n",
		assimilated, meanB, meanA, minB, minA, shift)
	return nil
}

// cloneObs copies an observation so the uploader can stamp it without
// mutating the shared dataset.
func cloneObs(o *sensing.Observation) *sensing.Observation {
	cp := *o
	if o.Loc != nil {
		loc := *o.Loc
		cp.Loc = &loc
	}
	return &cp
}
