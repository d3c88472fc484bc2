package predict

import (
	"context"
	"errors"
	"time"

	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
)

// ErrNoSeries reports that the storage engine backing the forecaster
// has no series view attached (the server runs without -series, or a
// shard lost its view): there are no rollups to fit over.
var ErrNoSeries = errors.New("predict: no series view attached to the storage engine")

// Source is the bucket-granular rollup read surface the forecaster
// fits over. storage.Local, the cluster Router, and the replication
// engines all satisfy it (it is storage.RollupReader restated here so
// predict depends only on series).
type Source interface {
	SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error)
	SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error)
}

// Forecaster fits per-zone forecasts over a storage engine's rollups.
// The clock decides "now" (and thereby the trailing window), so
// experiment runs on a simulated clock are fully deterministic.
type Forecaster struct {
	src   Source
	model Model
	clock simclock.Clock
	// metrics is set by Instrument before the forecaster serves.
	metrics *forecastMetrics
}

// New builds a forecaster over src. A nil clock means wall time.
func New(src Source, cfg Config, clock simclock.Clock) *Forecaster {
	if clock == nil {
		clock = simclock.Real()
	}
	return &Forecaster{src: src, model: NewModel(cfg), clock: clock}
}

// Horizon returns the forecast horizon.
func (f *Forecaster) Horizon() time.Duration { return f.model.cfg.Horizon }

// Now reads the forecaster's clock: the instant a caller passes to
// SweepAt when it must stamp an answer with the sweep's own asOf.
func (f *Forecaster) Now() time.Time { return f.clock.Now() }

// ZoneForecast forecasts one zone at the clock's current instant. ok
// is false for cold zones (insufficient history in the window).
func (f *Forecaster) ZoneForecast(ctx context.Context, zone string) (Forecast, bool, error) {
	return f.ZoneForecastAt(ctx, zone, f.clock.Now())
}

// ZoneForecastAt is ZoneForecast at an explicit asOf instant — the
// deterministic entry point the evaluation harness drives.
func (f *Forecaster) ZoneForecastAt(ctx context.Context, zone string, asOf time.Time) (Forecast, bool, error) {
	start := f.metrics.start()
	buckets, has, err := f.src.SeriesZoneBuckets(ctx, zone, asOf.Add(-Window), asOf)
	if err != nil {
		return Forecast{}, false, err
	}
	if !has {
		return Forecast{}, false, ErrNoSeries
	}
	fc, ok := f.model.ForecastZone(zone, buckets, asOf)
	f.metrics.zone(ok, start)
	return fc, ok, nil
}

// Sweep forecasts every zone with data in the trailing window at the
// clock's current instant. Cold zones are absent from the result.
func (f *Forecaster) Sweep(ctx context.Context) (map[string]Forecast, error) {
	return f.SweepAt(ctx, f.clock.Now())
}

// SweepAt is Sweep at an explicit asOf instant.
func (f *Forecaster) SweepAt(ctx context.Context, asOf time.Time) (map[string]Forecast, error) {
	start := f.metrics.start()
	all, has, err := f.src.SeriesAllBuckets(ctx, asOf.Add(-Window), asOf)
	if err != nil {
		return nil, err
	}
	if !has {
		return nil, ErrNoSeries
	}
	out := make(map[string]Forecast, len(all))
	cold := 0
	for zone, buckets := range all {
		if fc, ok := f.model.ForecastZone(zone, buckets, asOf); ok {
			out[zone] = fc
		} else {
			cold++
		}
	}
	f.metrics.sweep(len(out), cold, start)
	return out, nil
}
