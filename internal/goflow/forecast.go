package goflow

import (
	"net/http"
	"sort"

	"github.com/urbancivics/goflow/internal/predict"
)

// Forecast endpoints: the predictive layer's REST surface.
//
//	GET /v1/zones/{zone}/forecast   one zone's T+horizon forecast
//	GET /v1/noisemap/forecast       every warm zone's forecast
//
// Both run under the analytics admission class — forecasts are
// dashboard reads and are the first thing shed under overload; ingest
// never queues behind them. Like the noise endpoints they aggregate
// across apps and expose no contributor data. When the server runs
// without forecasting (-predict off, or no series view) they answer
// 501 so clients can distinguish "not enabled" from "no data".

// errPredictDisabled is the 501 body for servers without forecasting.
func errPredictDisabled(w http.ResponseWriter) {
	writeJSON(w, http.StatusNotImplemented, map[string]string{
		"error": "forecasting not enabled on this server (start with -predict over a -series engine)",
	})
}

// zoneForecast serves one zone's forecast at the current instant.
func (h *apiHandler) zoneForecast(w http.ResponseWriter, r *http.Request) {
	f := h.server.Predict
	if f == nil {
		errPredictDisabled(w)
		return
	}
	fc, ok, err := f.ZoneForecast(r.Context(), r.PathValue("zone"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "no forecast: zone has insufficient recent history",
		})
		return
	}
	writeJSON(w, http.StatusOK, fc)
}

// noisemapForecast serves the whole-city forecast sweep, sorted by
// zone id. The answer is stamped with the instant the sweep ran at,
// whether or not any zone was warm enough to forecast.
func (h *apiHandler) noisemapForecast(w http.ResponseWriter, r *http.Request) {
	f := h.server.Predict
	if f == nil {
		errPredictDisabled(w)
		return
	}
	asOf := f.Now()
	fcs, err := f.SweepAt(r.Context(), asOf)
	if err != nil {
		writeErr(w, err)
		return
	}
	zones := make([]predict.Forecast, 0, len(fcs))
	for _, fc := range fcs {
		zones = append(zones, fc)
	}
	sort.Slice(zones, func(i, j int) bool { return zones[i].Zone < zones[j].Zone })
	writeJSON(w, http.StatusOK, map[string]any{
		"generatedAt": asOf,
		"target":      asOf.Add(f.Horizon()),
		"horizon":     f.Horizon().String(),
		"count":       len(zones),
		"zones":       zones,
	})
}
