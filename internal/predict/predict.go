// Package predict is the server-side intelligence layer: per-zone
// noise-exposure forecasting over the continuous aggregates of
// internal/series, and quiet-path rerouting over the forecasts.
//
// The model is City-flow's ewma-lr-v2 shape transplanted from road
// congestion to dB exposure: an exponentially weighted moving average
// of the trailing window's per-bucket LAeq (the level a zone "usually"
// sits at right now) blended with a per-zone ordinary-least-squares
// linear regression over the same window (the direction it is moving),
// extrapolated to the forecast target T+Horizon. EWMA suppresses the
// sampling noise of individual 5-minute buckets; the regression term
// is what lets the forecast lead — rather than lag — rush-hour ramps.
// MOSDEN's lesson (PAPERS.md) sets the architecture: this runs on the
// server over aggregated streams, never per raw observation.
//
// Everything here is a pure function of the bucket series and the
// asOf instant: no wall-clock reads, no randomness. Same rollup
// history in, bit-identical forecast out — the property the
// determinism and cluster-merge tests pin.
package predict

import (
	"math"
	"time"

	"github.com/urbancivics/goflow/internal/series"
)

// The model's constants. Horizon and bucket mirror City-flow (T+30
// over 5-minute buckets); the window is long enough for the regression
// to see a trend but short enough that yesterday does not drag on now.
const (
	// DefaultHorizon is the forecast target when Config.Horizon is 0.
	DefaultHorizon = 30 * time.Minute
	// Window is the trailing history the model fits over.
	Window = 3 * time.Hour
	// Bucket is the rollup bucket width of the underlying series.
	// Bucket LAeq values are anchored at bucket centers.
	Bucket = 5 * time.Minute
	// alpha is the EWMA smoothing factor in (0, 1]; higher weighs
	// recent buckets more.
	alpha = 0.35
	// blend is the weight of the regression term in (0, 1]; 1 is pure
	// trend extrapolation.
	blend = 0.5
	// minBuckets is the number of non-empty buckets in the window
	// below which a zone is cold and gets no forecast.
	minBuckets = 4

	// Forecast values are clamped to the physically plausible dB
	// range; a regression extrapolated off six noisy buckets must not
	// announce a negative or 300 dB city.
	minForecastDB = 0
	maxForecastDB = 120
)

// Config parameterizes the model.
type Config struct {
	// Horizon is how far ahead the forecast targets (default 30m).
	Horizon time.Duration
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

// Forecast is one zone's T+Horizon exposure prediction.
type Forecast struct {
	Zone string `json:"zone"`
	// GeneratedAt is the asOf instant the forecast was computed at;
	// Target = GeneratedAt + Horizon is the instant it predicts.
	GeneratedAt time.Time `json:"generatedAt"`
	Target      time.Time `json:"target"`
	// ValueDB is the predicted LAeq at Target.
	ValueDB float64 `json:"valueDb"`
	// EWMADB is the smoothed baseline component alone.
	EWMADB float64 `json:"ewmaDb"`
	// TrendDBPerHour is the fitted slope (0 when the regression was
	// degenerate and the forecast fell back to pure EWMA).
	TrendDBPerHour float64 `json:"trendDbPerHour"`
	// LastDB is the most recent non-empty bucket's LAeq — the naive
	// persistence baseline the evaluation harness scores against.
	LastDB float64 `json:"lastDb"`
	// Buckets is how many non-empty buckets the fit used.
	Buckets int `json:"buckets"`
	// Basis names the model path: "ewma-lr" or "ewma" (degenerate
	// regression fallback).
	Basis string `json:"basis"`
}

// Model fits forecasts from bucket series. The zero value is unusable;
// build with NewModel.
type Model struct {
	cfg   Config
	blend float64 // the constant blend; a test turns it to pure trend
}

// NewModel validates cfg and fills defaults.
func NewModel(cfg Config) Model { return Model{cfg: cfg.withDefaults(), blend: blend} }

// ForecastZone fits one zone's forecast from its trailing bucket
// series. Buckets must be ascending by start (what the series bucket
// readers return). ok is false for cold zones: fewer than MinBuckets
// usable buckets in the window, where a usable bucket has points and a
// finite LAeq. Gaps in the history are fine — buckets are anchored at
// their own centers, so the regression sees the true time axis.
func (m Model) ForecastZone(zone string, buckets []series.Bucket, asOf time.Time) (Forecast, bool) {
	cfg := m.cfg
	// Usable buckets only: empty and non-finite aggregates (satellite
	// hardening — a merged-zero or corrupt Agg must yield "no
	// forecast", never NaN).
	times := make([]float64, 0, len(buckets))
	vals := make([]float64, 0, len(buckets))
	asOfMs := asOf.UnixMilli()
	halfBucket := float64(Bucket.Milliseconds()) / 2
	for i := range buckets {
		b := &buckets[i]
		if b.Count == 0 || b.Start >= asOfMs {
			continue
		}
		v := b.LAeq()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		// Hours relative to asOf, anchored at the bucket center: a
		// bucket's LAeq is the level over its whole span, not at its
		// leading edge.
		t := (float64(b.Start) + halfBucket - float64(asOfMs)) / float64(time.Hour.Milliseconds())
		times = append(times, t)
		vals = append(vals, v)
	}
	if len(vals) < minBuckets {
		return Forecast{}, false
	}

	// EWMA in time order over the usable buckets.
	ewma := vals[0]
	for _, v := range vals[1:] {
		ewma = alpha*v + (1-alpha)*ewma
	}

	last := vals[len(vals)-1]
	out := Forecast{
		Zone:        zone,
		GeneratedAt: asOf,
		Target:      asOf.Add(cfg.Horizon),
		EWMADB:      ewma,
		LastDB:      last,
		Buckets:     len(vals),
	}

	// Regression term, extrapolated to the target and clamped near the
	// window's observed range so a steep fit over few points cannot
	// run away.
	slope, intercept, fit := linearRegression(times, vals)
	if fit {
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		xTarget := cfg.Horizon.Hours()
		lr := intercept + slope*xTarget
		lr = math.Max(lo-5, math.Min(hi+5, lr))
		out.ValueDB = m.blend*lr + (1-m.blend)*ewma
		out.TrendDBPerHour = slope
		out.Basis = "ewma-lr"
	} else {
		out.ValueDB = ewma
		out.Basis = "ewma"
	}
	out.ValueDB = math.Max(minForecastDB, math.Min(maxForecastDB, out.ValueDB))
	return out, true
}

// linearRegression fits y = intercept + slope*x by ordinary least
// squares. ok is false when the fit is degenerate — fewer than two
// points, zero variance in x, or non-finite inputs — so callers fall
// back to a trend-free model instead of extrapolating garbage.
func linearRegression(xs, ys []float64) (slope, intercept float64, ok bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, false
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return 0, 0, false
		}
	}
	mx, my := mean(xs), mean(ys)
	var cov, vx float64
	for i := range xs {
		dx := xs[i] - mx
		cov += dx * (ys[i] - my)
		vx += dx * dx
	}
	if vx == 0 {
		return 0, 0, false
	}
	slope = cov / vx
	intercept = my - slope*mx
	return slope, intercept, true
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
