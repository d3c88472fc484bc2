package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/urbancivics/goflow/internal/adaptive"
	"github.com/urbancivics/goflow/internal/assim"
	"github.com/urbancivics/goflow/internal/device"
	"github.com/urbancivics/goflow/internal/sensing"
)

// Extension experiments: the paper's Section 8 future-work directions,
// implemented and evaluated on the same simulated deployment. They are
// labelled extN to keep them apart from the paper's own figures.

// ExtCrowdCal evaluates crowd-calibration: per-model biases recovered
// from the fleet's raw observations with a single party-calibrated
// anchor model, compared against the catalog's true biases.
func ExtCrowdCal(ds *Dataset) (*Result, error) {
	const anchorModel = "SAMSUNG GT-I9505"
	anchor, err := device.ModelByName(anchorModel)
	if err != nil {
		return nil, err
	}
	res, err := sensing.CrowdCalibrate(ds.Observations, sensing.CrowdCalOptions{
		Anchors: map[string]float64{anchorModel: anchor.Mic.BiasDB},
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		ID:     "ext1",
		Title:  "Crowd-calibration: per-model biases from co-located raw observations",
		Header: []string{"model", "true bias dB", "crowd estimate dB", "error dB"},
	}
	models := device.TopModels()
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	maxErr, covered := 0.0, 0
	for _, m := range models {
		est, ok := res.Biases[m.Name]
		if !ok {
			continue
		}
		covered++
		e := math.Abs(est - m.Mic.BiasDB)
		if e > maxErr {
			maxErr = e
		}
		out.Rows = append(out.Rows, []string{
			m.Name,
			fmt.Sprintf("%.2f", m.Mic.BiasDB),
			fmt.Sprintf("%.2f", est),
			fmt.Sprintf("%.2f", e),
		})
	}
	out.Checks = append(out.Checks,
		checkTrue("all 20 models calibrated from one anchored model",
			covered == 20, fmt.Sprintf("%d/20 models covered", covered)),
		checkTrue("worst recovery error under 2 dB",
			maxErr < 2.0, fmt.Sprintf("max error %.2f dB over %d observations", maxErr, res.ObsUsed)),
	)
	return out, nil
}

// ExtAdaptive evaluates informative sensing scheduling: at equal
// measurement budgets, variance-driven scheduling versus periodic
// sampling, measured on residual map uncertainty.
func ExtAdaptive(seed int64) (*Result, error) {
	periodic, adaptiveRes, err := adaptive.CompareStrategies(adaptive.CompareConfig{
		Walkers:         15,
		StepsPerWalker:  80,
		BudgetPerWalker: 10,
		GridRows:        12,
		GridCols:        12,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		ID:     "ext2",
		Title:  "Informative sensing scheduling vs periodic sampling (equal budget)",
		Header: []string{"strategy", "measurements", "residual uncertainty", "map RMSE dB"},
		Rows: [][]string{
			{"periodic", fmt.Sprintf("%d", periodic.Measurements), fmt.Sprintf("%.3f", periodic.Coverage), fmt.Sprintf("%.2f", periodic.RMSE)},
			{"adaptive", fmt.Sprintf("%d", adaptiveRes.Measurements), fmt.Sprintf("%.3f", adaptiveRes.Coverage), fmt.Sprintf("%.2f", adaptiveRes.RMSE)},
		},
	}
	out.Checks = append(out.Checks,
		checkTrue("adaptive spends no more energy than periodic",
			adaptiveRes.Measurements <= periodic.Measurements,
			fmt.Sprintf("%d vs %d measurements", adaptiveRes.Measurements, periodic.Measurements)),
		checkTrue("adaptive leaves >=10%% less residual map uncertainty",
			adaptiveRes.Coverage <= periodic.Coverage*0.9,
			fmt.Sprintf("%.3f vs %.3f", adaptiveRes.Coverage, periodic.Coverage)),
		checkTrue("map quality stays comparable (RMSE within 25%%)",
			adaptiveRes.RMSE <= periodic.RMSE*1.25,
			fmt.Sprintf("%.2f vs %.2f dB", adaptiveRes.RMSE, periodic.RMSE)),
	)
	return out, nil
}

// ExtStream evaluates streaming assimilation for moving sensors:
// batched sequential analysis versus the one-shot joint BLUE on
// identical observations.
func ExtStream(seed int64) (*Result, error) {
	city, err := assim.RandomCity(assim.CityConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	truth, err := city.NoiseField(20, 20)
	if err != nil {
		return nil, err
	}
	background := truth.Clone()
	for i := range background.Values {
		background.Values[i] += 4
	}
	params := assim.BLUEParams{SigmaB: 6, CorrLengthM: 600}
	rng := rand.New(rand.NewSource(seed + 1))
	var obs []assim.Observation
	for i := 0; i < 200; i++ {
		p := truth.CellCenter(rng.Intn(20), rng.Intn(20))
		v, _ := truth.Sample(p)
		obs = append(obs, assim.Observation{At: p, ValueDB: v + 2*rng.NormFloat64(), SigmaDB: 2})
	}
	full, err := assim.Analyze(background, obs, params)
	if err != nil {
		return nil, err
	}
	stream, err := assim.NewStreamAnalyzer(background, params, 40)
	if err != nil {
		return nil, err
	}
	for _, o := range obs {
		if err := stream.Add(o); err != nil {
			return nil, err
		}
	}
	streamed, err := stream.Current()
	if err != nil {
		return nil, err
	}
	bgRMSE, err := assim.RMSE(background, truth)
	if err != nil {
		return nil, err
	}
	fullRMSE, err := assim.RMSE(full, truth)
	if err != nil {
		return nil, err
	}
	streamRMSE, err := assim.RMSE(streamed, truth)
	if err != nil {
		return nil, err
	}
	gap, err := assim.RMSE(streamed, full)
	if err != nil {
		return nil, err
	}
	out := &Result{
		ID:     "ext3",
		Title:  "Streaming assimilation (5 batches of 40) vs one-shot joint BLUE",
		Header: []string{"field", "RMSE vs truth dB"},
		Rows: [][]string{
			{"background (model only)", fmt.Sprintf("%.2f", bgRMSE)},
			{"joint BLUE (200 obs)", fmt.Sprintf("%.2f", fullRMSE)},
			{"streaming BLUE (200 obs)", fmt.Sprintf("%.2f", streamRMSE)},
			{"stream-vs-joint gap", fmt.Sprintf("%.2f", gap)},
		},
	}
	out.Checks = append(out.Checks,
		checkTrue("streaming removes most of the model error",
			streamRMSE < bgRMSE*0.5, fmt.Sprintf("%.2f -> %.2f dB", bgRMSE, streamRMSE)),
		checkTrue("streaming stays close to the joint analysis",
			gap < 1.0, fmt.Sprintf("gap %.2f dB", gap)),
	)
	return out, nil
}

// ExtForecast evaluates the predictive layer: T+30 per-zone exposure
// forecasts (EWMA blended with a trailing-window trend) scored against
// the seeded deployment's noise-free ground truth, with the naive
// persistence baseline ("T+30 equals the latest bucket") on the same
// instants.
func ExtForecast(seed int64) (*Result, error) {
	res, err := RunEval(EvalConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	out := &Result{
		ID:     "ext4",
		Title:  "T+30 exposure forecasts: EWMA+trend model vs persistence baseline",
		Header: []string{"metric", "model", "persistence"},
		Rows: [][]string{
			{"forecasts scored", fmt.Sprintf("%d", res.Forecasts), fmt.Sprintf("%d", res.Forecasts)},
			{"MAE dB", fmt.Sprintf("%.3f", res.ModelMAE), fmt.Sprintf("%.3f", res.PersistMAE)},
			{"RMSE dB", fmt.Sprintf("%.3f", res.ModelRMSE), fmt.Sprintf("%.3f", res.PersistRMSE)},
		},
	}
	out.Checks = append(out.Checks,
		checkTrue("model beats the persistence baseline on MAE",
			res.ModelMAE < res.PersistMAE,
			fmt.Sprintf("%.3f vs %.3f dB (%.1f%% better)", res.ModelMAE, res.PersistMAE, 100*res.Improvement())),
		checkTrue("model beats the persistence baseline on RMSE",
			res.ModelRMSE < res.PersistRMSE,
			fmt.Sprintf("%.3f vs %.3f dB", res.ModelRMSE, res.PersistRMSE)),
		checkTrue("forecast error stays within 2 dB MAE",
			res.ModelMAE <= 2.0, fmt.Sprintf("%.3f dB", res.ModelMAE)),
	)
	return out, nil
}
