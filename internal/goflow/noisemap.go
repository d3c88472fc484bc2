package goflow

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
)

// Noise analytics: per-zone sound-level summaries over a time range,
// the query behind the SoundCity noisemap. When the storage engine
// carries a series engine (storage.SeriesQuerier), answers come from
// the continuous per-(zone, bucket) rollups in microseconds; otherwise
// the same numbers are computed by scanning observation documents, so
// both paths return identical statistics and callers cannot tell them
// apart except by the Source field and the latency.
//
// Noise is a property of a place, not of the app that measured it:
// these summaries aggregate across apps, unlike the filtered document
// retrieval API which scopes by owner and open-data policy. Only the
// sound level leaves this layer — no contributor, device or trajectory
// data — so the cross-app aggregation is privacy-preserving by
// construction.

// NoiseStats summarizes the sound level of one zone over a range.
type NoiseStats struct {
	Zone   string  `json:"zone"`
	Count  uint64  `json:"count"`
	LAeq   float64 `json:"laeq"` // energetic mean, the acoustics standard
	Mean   float64 `json:"mean"` // arithmetic mean dB
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"` // median, within the histogram bin width
	P95    float64 `json:"p95"`
	Source string  `json:"source"` // "rollup" or "scan"
}

// noiseStats derives the exported summary from an aggregate.
func noiseStats(zone string, a *series.Agg, source string) NoiseStats {
	if a.Count == 0 {
		return NoiseStats{Zone: zone, Source: source}
	}
	return NoiseStats{
		Zone:   zone,
		Count:  a.Count,
		LAeq:   a.LAeq(),
		Mean:   a.Mean(),
		Min:    a.Min,
		Max:    a.Max,
		Stddev: a.Stddev(),
		P50:    a.Percentile(50),
		P95:    a.Percentile(95),
		Source: source,
	}
}

// ZoneNoise summarizes one zone's sound level over [from, to).
func (dm *DataManager) ZoneNoise(ctx context.Context, zone string, from, to time.Time) (NoiseStats, error) {
	if sq, ok := dm.data.(storage.SeriesQuerier); ok {
		agg, has, err := sq.SeriesZoneAggregate(ctx, zone, from, to)
		if err != nil {
			return NoiseStats{}, fmt.Errorf("zone noise: %w", err)
		}
		if has {
			return noiseStats(zone, &agg, "rollup"), nil
		}
	}
	aggs, err := dm.scanNoise(ctx, zone, from, to)
	if err != nil {
		return NoiseStats{}, err
	}
	a := aggs[zone]
	if a == nil {
		a = &series.Agg{}
	}
	return noiseStats(zone, a, "scan"), nil
}

// Noisemap summarizes every zone's sound level over [from, to),
// sorted by zone id.
func (dm *DataManager) Noisemap(ctx context.Context, from, to time.Time) ([]NoiseStats, error) {
	var out []NoiseStats
	if sq, ok := dm.data.(storage.SeriesQuerier); ok {
		m, has, err := sq.SeriesNoisemap(ctx, from, to)
		if err != nil {
			return nil, fmt.Errorf("noisemap: %w", err)
		}
		if has {
			out = make([]NoiseStats, 0, len(m))
			for z, a := range m {
				out = append(out, noiseStats(z, &a, "rollup"))
			}
		}
	}
	if out == nil {
		byZone, err := dm.scanNoise(ctx, "", from, to)
		if err != nil {
			return nil, err
		}
		out = make([]NoiseStats, 0, len(byZone))
		for z, a := range byZone {
			out = append(out, noiseStats(z, a, "scan"))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Zone < out[j].Zone })
	return out, nil
}

// noiseFields are the fields scanNoise reads.
var noiseFields = docstore.NewFields("zone", "spl")

// scanNoise is the fallback path: aggregate observation documents by
// zone with the exact arithmetic the series engine uses (same
// quantization, same histogram), so switching an engine to rollups
// never changes an answer, only its latency. zone == "" scans all
// zones. This is a full range scan — the cost the rollups exist to
// avoid.
func (dm *DataManager) scanNoise(ctx context.Context, zone string, from, to time.Time) (map[string]*series.Agg, error) {
	filter := docstore.Doc{
		"sensedAt": map[string]any{"$gte": from, "$lt": to},
	}
	if zone != "" {
		filter["zone"] = zone
	}
	rows, err := dm.data.FindRows(ctx, ObservationsCollection, filter, docstore.FindOptions{})
	if err != nil {
		return nil, fmt.Errorf("noise scan: %w", err)
	}
	byZone := map[string]*series.Agg{}
	for _, r := range rows {
		// Missing zone buckets under "", exactly like
		// series.PointFromObservation — the two paths must produce the
		// same zone set or switching an engine to rollups would change
		// the noisemap's rows, not just its latency.
		f := noiseFields.In(r)
		z, _ := f.String(0)
		spl, ok := f.Float(1)
		if !ok {
			continue
		}
		a := byZone[z]
		if a == nil {
			a = &series.Agg{}
			byZone[z] = a
		}
		a.Add(series.Quantize(spl))
	}
	return byZone, nil
}
