package predict

import (
	"time"

	"github.com/urbancivics/goflow/internal/obs"
)

// forecastMetrics are what the forecaster and its rerouter count and
// time while a registry is attached (see Instrument). Timing runs only
// then.
type forecastMetrics struct {
	sweeps        *obs.Counter
	forecastZones *obs.Gauge
	coldZones     *obs.Gauge
	sweepDur      *obs.Histogram
	zoneReqs      *obs.CounterVec
	zoneDur       *obs.Histogram
	reroutes      *obs.CounterVec
	rerouteDur    *obs.Histogram
}

// Instrument registers the predict_* families on reg. Call it before
// the forecaster serves.
func (f *Forecaster) Instrument(reg *obs.Registry) {
	f.metrics = &forecastMetrics{
		sweeps: reg.Counter("predict_sweeps_total",
			"Whole-city forecast sweeps."),
		forecastZones: reg.Gauge("predict_forecast_zones",
			"Zones with a forecast in the latest sweep."),
		coldZones: reg.Gauge("predict_cold_zones",
			"Zones skipped in the latest sweep for insufficient history."),
		sweepDur: reg.Histogram("predict_sweep_duration_seconds",
			"Whole-city forecast sweep latency.", nil),
		zoneReqs: reg.CounterVec("predict_zone_forecasts_total",
			"Single-zone forecast requests, by outcome.", "outcome"),
		zoneDur: reg.Histogram("predict_zone_forecast_duration_seconds",
			"Single-zone forecast latency.", nil),
		reroutes: reg.CounterVec("predict_reroutes_total",
			"Quiet-route requests, by outcome.", "outcome"),
		rerouteDur: reg.Histogram("predict_reroute_duration_seconds",
			"Quiet-route scoring latency (sweep plus path search).", nil),
	}
}

// start reads the clock for a timing, only when m is attached.
func (m *forecastMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *forecastMetrics) sweep(zones, cold int, start time.Time) {
	if m == nil {
		return
	}
	m.sweeps.Inc()
	m.forecastZones.Set(float64(zones))
	m.coldZones.Set(float64(cold))
	m.sweepDur.ObserveDuration(time.Since(start))
}

func (m *forecastMetrics) zone(ok bool, start time.Time) {
	if m == nil {
		return
	}
	outcome := "cold"
	if ok {
		outcome = "forecast"
	}
	m.zoneReqs.With(outcome).Inc()
	m.zoneDur.ObserveDuration(time.Since(start))
}

func (m *forecastMetrics) reroute(rerouted bool, start time.Time) {
	if m == nil {
		return
	}
	outcome := "kept"
	if rerouted {
		outcome = "rerouted"
	}
	m.reroutes.With(outcome).Inc()
	m.rerouteDur.ObserveDuration(time.Since(start))
}
