package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/urbancivics/goflow/internal/assim"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/series"
)

// Forecast-error evaluation of internal/predict: the model is honest or
// it is nothing.
// The harness builds a seeded synthetic deployment — the simulator's
// ground-truth noise field plus a deterministic diurnal swing per zone
// — streams noisy per-bucket samples through a real series.DB, and
// scores the forecaster's T+Horizon predictions against the *truth*
// (not the samples) with MAE/RMSE. The naive persistence baseline
// ("T+30 equals the latest bucket") is scored on the same instants;
// a model that cannot beat it has no business shipping forecasts.

// EvalConfig parameterizes a run. The zero value evaluates the model on
// a 12-hour seeded deployment. The model itself is the server's, read
// from predict's constants and never tuned here.
type EvalConfig struct {
	// Seed drives the city layout, zone phases and sample noise.
	Seed int64
	// Zones is how many grid zones get sensor coverage (default 25).
	Zones int
	// History is the warm-up span before the first scored forecast
	// (default predict.Window).
	History time.Duration
	// Span is the scored span after warm-up (default 12h).
	Span time.Duration
	// Step is the cadence of scored forecast instants (default 30m).
	Step time.Duration
	// SamplesPerBucket is how many noisy observations land in each
	// (zone, bucket) (default 20).
	SamplesPerBucket int
	// NoiseDB is the per-sample measurement noise stddev (default 3).
	NoiseDB float64
	// DiurnalAmpDB is the amplitude of each zone's daily swing
	// (default 6).
	DiurnalAmpDB float64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Zones <= 0 {
		c.Zones = 25
	}
	if c.History <= 0 {
		c.History = predict.Window
	}
	if c.Span <= 0 {
		c.Span = 12 * time.Hour
	}
	if c.Step <= 0 {
		c.Step = 30 * time.Minute
	}
	if c.SamplesPerBucket <= 0 {
		c.SamplesPerBucket = 20
	}
	if c.NoiseDB <= 0 {
		c.NoiseDB = 3
	}
	if c.DiurnalAmpDB <= 0 {
		c.DiurnalAmpDB = 6
	}
	return c
}

// EvalResult is the scorecard of one run.
type EvalResult struct {
	// Forecasts is how many (zone, instant) forecasts were scored.
	Forecasts int `json:"forecasts"`
	// ModelMAE / ModelRMSE score the forecaster against ground truth.
	ModelMAE  float64 `json:"modelMae"`
	ModelRMSE float64 `json:"modelRmse"`
	// PersistMAE / PersistRMSE score the naive persistence baseline
	// (T+Horizon = last bucket's LAeq) on the same instants.
	PersistMAE  float64 `json:"persistMae"`
	PersistRMSE float64 `json:"persistRmse"`
}

// Improvement returns the relative MAE improvement of the model over
// persistence (positive = model wins).
func (r EvalResult) Improvement() float64 {
	if r.PersistMAE == 0 {
		return 0
	}
	return 1 - r.ModelMAE/r.PersistMAE
}

// RunEval executes one seeded evaluation run. Fully deterministic for
// a given config.
func RunEval(cfg EvalConfig) (EvalResult, error) {
	cfg = cfg.withDefaults()
	city, err := assim.RandomCity(assim.CityConfig{Seed: cfg.Seed})
	if err != nil {
		return EvalResult{}, err
	}
	grid := geo.ParisZones()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pick cfg.Zones cells spread evenly over the grid and give each a
	// base level from the ground-truth field plus a seeded diurnal
	// phase. Truth at (zone, t) is base + amp·sin(2π(t−phase)/24h) —
	// a field with real spatial structure and a temporal trend the
	// regression term can lead.
	total := grid.Rows() * grid.Cols()
	if cfg.Zones > total {
		cfg.Zones = total
	}
	type zoneTruth struct {
		id      string
		base    float64
		phaseMs float64
	}
	zones := make([]zoneTruth, 0, cfg.Zones)
	for i := 0; i < cfg.Zones; i++ {
		idx := i * total / cfg.Zones
		row, col := idx/grid.Cols(), idx%grid.Cols()
		id := grid.ZoneOf(row, col)
		zones = append(zones, zoneTruth{
			id:      id,
			base:    city.NoiseAt(grid.CellCenter(row, col)),
			phaseMs: rng.Float64() * 24 * float64(time.Hour.Milliseconds()),
		})
	}
	day := float64(24 * time.Hour.Milliseconds())
	truth := func(z zoneTruth, tMs int64) float64 {
		return z.base + cfg.DiurnalAmpDB*math.Sin(2*math.Pi*(float64(tMs)-z.phaseMs)/day)
	}

	// Stream noisy samples through a real series DB: the forecaster is
	// evaluated over exactly the rollups production reads.
	db := series.New(series.Options{RollupBucket: predict.Bucket})
	t0 := time.Unix(0, 0).UTC().Add(365 * 24 * time.Hour) // arbitrary fixed origin
	end := t0.Add(cfg.History + cfg.Span + predict.DefaultHorizon)
	bucketMs := predict.Bucket.Milliseconds()
	var lsn uint64
	for bs := t0.UnixMilli(); bs < end.UnixMilli(); bs += bucketMs {
		var pts []series.Point
		for _, z := range zones {
			for i := 0; i < cfg.SamplesPerBucket; i++ {
				ts := bs + int64(rng.Float64()*float64(bucketMs))
				v := truth(z, ts) + rng.NormFloat64()*cfg.NoiseDB
				pts = append(pts, series.Point{TS: ts, Value: v, Zone: z.id})
			}
		}
		lsn++
		db.AppendBatch(lsn, pts)
	}

	// Score: at each instant T the forecaster sees only [T−window, T)
	// — the DB holds the future too, but the bucket readers window it
	// out — and its T+Horizon value is compared to the noise-free
	// truth at the target.
	model := predict.NewModel(predict.Config{})
	ctx := context.Background()
	var res EvalResult
	var mAbs, mSq, pAbs, pSq float64
	for at := t0.Add(cfg.History); !at.After(t0.Add(cfg.History + cfg.Span)); at = at.Add(cfg.Step) {
		for _, z := range zones {
			buckets, err := db.ZoneBuckets(ctx, z.id, at.Add(-predict.Window), at)
			if err != nil {
				return EvalResult{}, err
			}
			fc, ok := model.ForecastZone(z.id, buckets, at)
			if !ok {
				continue
			}
			want := truth(z, fc.Target.UnixMilli())
			me := fc.ValueDB - want
			pe := fc.LastDB - want
			mAbs += math.Abs(me)
			mSq += me * me
			pAbs += math.Abs(pe)
			pSq += pe * pe
			res.Forecasts++
		}
	}
	if res.Forecasts == 0 {
		return EvalResult{}, fmt.Errorf("experiment: forecast eval produced no forecasts (history %v too short for window %v?)", cfg.History, predict.Window)
	}
	n := float64(res.Forecasts)
	res.ModelMAE = mAbs / n
	res.ModelRMSE = math.Sqrt(mSq / n)
	res.PersistMAE = pAbs / n
	res.PersistRMSE = math.Sqrt(pSq / n)
	return res, nil
}
