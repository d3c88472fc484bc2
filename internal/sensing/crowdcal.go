package sensing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Crowd-calibration (the paper's future work, Section 8: "we expect
// crowd-sensing to be accompanied with crowd-calibration which
// calibrates individual devices based on each other's devices").
//
// Phones of different models co-occur in space-time cells (same zone,
// same hour). Within a cell they measure the same ambient level, so
// systematic differences between models are their relative hardware
// biases. CrowdCalibrate separates the two with a robust median
// polish:
//
//	spl = ambient(cell) + bias(model) + noise
//
// alternating median estimates of per-cell ambients and per-model
// biases until convergence. The gauge freedom (adding a constant to
// every bias and subtracting it from every ambient) is fixed either
// by anchor models whose bias is known from a reference sound-meter
// comparison (a "calibration party"), or by a zero-median convention.

// CrowdCalOptions tune CrowdCalibrate.
type CrowdCalOptions struct {
	// Anchors are models with known biases (dB) from reference
	// calibration; when non-empty the estimated biases are shifted so
	// the anchors match their known values on average.
	Anchors map[string]float64

	// cell maps an observation to its co-location cell id; ok=false
	// excludes the observation. Nil is hourCell; a test of this
	// package keys cells its own way.
	cell func(o *Observation) (string, bool)
}

// Crowd-calibration constants.
const (
	// crowdCalMaxIter bounds the median-polish iterations.
	crowdCalMaxIter = 25
	// crowdCalTol is the convergence threshold on the max bias change
	// per iteration, in dB.
	crowdCalTol = 0.01
	// minObsPerModel drops models with fewer observations.
	minObsPerModel = 10
	// minModelsPerCell drops cells observed by fewer distinct models:
	// a cell seen by one model carries no cross-model information.
	minModelsPerCell = 2
)

// hourCell keys an observation's co-location cell by its hour of day:
// coarse but always available.
func hourCell(o *Observation) (string, bool) {
	return fmt.Sprintf("h%02d", o.SensedAt.Hour()), true
}

// CrowdCalResult reports the calibration outcome.
type CrowdCalResult struct {
	// Biases are the estimated per-model biases (dB).
	Biases map[string]float64 `json:"biases"`
	// Ambients are the estimated per-cell ambient levels (dB).
	Ambients map[string]float64 `json:"ambients"`
	// Iterations until convergence.
	Iterations int `json:"iterations"`
	// ObsUsed is the number of observations that survived filtering.
	ObsUsed int `json:"obsUsed"`
}

// ErrInsufficientOverlap reports that the observation set has no
// usable cross-model co-location structure.
var ErrInsufficientOverlap = errors.New("sensing: insufficient cross-model overlap for crowd-calibration")

// CrowdCalibrate estimates per-model biases from raw observations.
func CrowdCalibrate(obs []*Observation, opts CrowdCalOptions) (*CrowdCalResult, error) {
	if opts.cell == nil {
		opts.cell = hourCell
	}

	type sample struct {
		model string
		cell  string
		spl   float64
	}
	perModel := make(map[string]int)
	samples := make([]sample, 0, len(obs))
	for _, o := range obs {
		cell, ok := opts.cell(o)
		if !ok {
			continue
		}
		samples = append(samples, sample{model: o.DeviceModel, cell: cell, spl: o.SPL})
		perModel[o.DeviceModel]++
	}
	// Filter thin models.
	keepModel := make(map[string]bool, len(perModel))
	for m, n := range perModel {
		if n >= minObsPerModel {
			keepModel[m] = true
		}
	}
	// Filter cells without cross-model information.
	modelsInCell := make(map[string]map[string]bool)
	for _, s := range samples {
		if !keepModel[s.model] {
			continue
		}
		set, ok := modelsInCell[s.cell]
		if !ok {
			set = make(map[string]bool)
			modelsInCell[s.cell] = set
		}
		set[s.model] = true
	}
	keepCell := make(map[string]bool, len(modelsInCell))
	for c, set := range modelsInCell {
		if len(set) >= minModelsPerCell {
			keepCell[c] = true
		}
	}
	kept := samples[:0]
	for _, s := range samples {
		if keepModel[s.model] && keepCell[s.cell] {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 || len(keepModel) < 2 {
		return nil, ErrInsufficientOverlap
	}

	// Median polish.
	biases := make(map[string]float64)
	ambients := make(map[string]float64)
	byModel := make(map[string][]int)
	byCell := make(map[string][]int)
	for i, s := range kept {
		byModel[s.model] = append(byModel[s.model], i)
		byCell[s.cell] = append(byCell[s.cell], i)
	}
	iterations := 0
	for iter := 0; iter < crowdCalMaxIter; iter++ {
		iterations = iter + 1
		// Ambients given biases.
		for cell, idxs := range byCell {
			vals := make([]float64, len(idxs))
			for j, i := range idxs {
				vals[j] = kept[i].spl - biases[kept[i].model]
			}
			ambients[cell] = medianOf(vals)
		}
		// Biases given ambients.
		maxDelta := 0.0
		for model, idxs := range byModel {
			vals := make([]float64, len(idxs))
			for j, i := range idxs {
				vals[j] = kept[i].spl - ambients[kept[i].cell]
			}
			next := medianOf(vals)
			if d := math.Abs(next - biases[model]); d > maxDelta {
				maxDelta = d
			}
			biases[model] = next
		}
		if maxDelta < crowdCalTol {
			break
		}
	}

	// Fix the gauge.
	shift := 0.0
	if len(opts.Anchors) > 0 {
		n := 0
		for model, known := range opts.Anchors {
			if est, ok := biases[model]; ok {
				shift += known - est
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("sensing: no anchor model present in the data: %w", ErrInsufficientOverlap)
		}
		shift /= float64(n)
	} else {
		// Zero-median convention.
		all := make([]float64, 0, len(biases))
		for _, b := range biases {
			all = append(all, b)
		}
		shift = -medianOf(all)
	}
	for m := range biases {
		biases[m] += shift
	}
	for c := range ambients {
		ambients[c] -= shift
	}
	return &CrowdCalResult{
		Biases:     biases,
		Ambients:   ambients,
		Iterations: iterations,
		ObsUsed:    len(kept),
	}, nil
}

// ApplyToDB folds crowd-calibration estimates into a calibration
// database as "crowd"-sourced entries, so the per-model bias serving
// path (CalibrationDB.Bias / Calibrate) is shared between party and
// crowd calibration.
func (r *CrowdCalResult) ApplyToDB(db *CalibrationDB) error {
	models := make([]string, 0, len(r.Biases))
	for m := range r.Biases {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		if err := db.Add(CalibrationEntry{Model: m, BiasDB: r.Biases[m], Source: "crowd"}); err != nil {
			return err
		}
	}
	return nil
}

// medianOf returns the median, destroying its input order.
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
