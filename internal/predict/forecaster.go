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

// Hooks receive forecaster and rerouter telemetry. Attach via
// Forecaster.SetHooks; nil fields are skipped.
type Hooks struct {
	// Sweep fires after each whole-city forecast pass with the number
	// of forecast zones, the number of cold zones skipped, and the
	// sweep duration.
	Sweep func(zones, cold int, d time.Duration)
	// Zone fires after each single-zone forecast request.
	Zone func(ok bool, d time.Duration)
	// Reroute fires after each quiet-route request with whether an
	// alternative was proposed.
	Reroute func(rerouted bool, d time.Duration)
}

// Forecaster fits per-zone forecasts over a storage engine's rollups.
// The clock decides "now" (and thereby the trailing window), so
// experiment runs on a simulated clock are fully deterministic.
type Forecaster struct {
	src   Source
	model Model
	clock simclock.Clock
	hooks *Hooks
}

// New builds a forecaster over src. A nil clock means wall time.
func New(src Source, cfg Config, clock simclock.Clock) *Forecaster {
	if clock == nil {
		clock = simclock.Real()
	}
	return &Forecaster{src: src, model: NewModel(cfg), clock: clock}
}

// SetHooks attaches telemetry hooks (nil detaches).
func (f *Forecaster) SetHooks(h *Hooks) { f.hooks = h }

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
	start := time.Now()
	buckets, has, err := f.src.SeriesZoneBuckets(ctx, zone, asOf.Add(-Window), asOf)
	if err != nil {
		return Forecast{}, false, err
	}
	if !has {
		return Forecast{}, false, ErrNoSeries
	}
	fc, ok := f.model.ForecastZone(zone, buckets, asOf)
	if h := f.hooks; h != nil && h.Zone != nil {
		h.Zone(ok, time.Since(start))
	}
	return fc, ok, nil
}

// Sweep forecasts every zone with data in the trailing window at the
// clock's current instant. Cold zones are absent from the result.
func (f *Forecaster) Sweep(ctx context.Context) (map[string]Forecast, error) {
	return f.SweepAt(ctx, f.clock.Now())
}

// SweepAt is Sweep at an explicit asOf instant.
func (f *Forecaster) SweepAt(ctx context.Context, asOf time.Time) (map[string]Forecast, error) {
	start := time.Now()
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
	if h := f.hooks; h != nil && h.Sweep != nil {
		h.Sweep(len(out), cold, time.Since(start))
	}
	return out, nil
}
