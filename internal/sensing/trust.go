package sensing

import (
	"errors"
	"math"
	"sort"
)

// Truth discovery over contributors (Section 2 of the paper: "the
// trustworthiness of the contributing user significantly affects the
// quality of the sensing", citing Li/Meng et al.). Users whose
// observations systematically disagree with the crowd consensus in
// their co-location cells — broken microphones, phones in bags,
// spoofed contributions — are assigned low reliability weights, which
// downstream consumers (the assimilation engine, the analytics) use
// to discount or reject their data.
//
// The algorithm is CRH-style iterative reweighting:
//
//  1. consensus(cell) = weighted median of (calibrated) observations;
//  2. userError(u)    = mean absolute residual of u's observations
//                       against their cells' consensus;
//  3. weight(u)       = 1 / (userError(u)² + ε), normalized;
//
// repeated until the weights stabilize.

// TrustOptions tune EstimateTrust. Observations co-locate by hour of
// day (hourCell), matching crowd-calibration.
type TrustOptions struct {
	// Calibration removes per-model bias before comparing users; nil
	// compares raw levels (model bias then pollutes user residuals,
	// so calibrate first when possible).
	Calibration *CalibrationDB
}

// Truth-discovery constants.
const (
	// trustMaxIter bounds the reweighting iterations.
	trustMaxIter = 20
	// trustTol is the convergence threshold on weight change.
	trustTol = 1e-4
	// minObsPerUser drops users with fewer observations.
	minObsPerUser = 5
)

// TrustResult reports per-user reliability.
type TrustResult struct {
	// Weights are normalized to mean 1: a weight well below 1 marks
	// an unreliable contributor.
	Weights map[string]float64 `json:"weights"`
	// MeanAbsResidual per user (dB) against the cell consensus.
	MeanAbsResidual map[string]float64 `json:"meanAbsResidual"`
	// Iterations until convergence.
	Iterations int `json:"iterations"`
}

// ErrNoTrustData reports an observation set without enough structure
// to estimate reliability.
var ErrNoTrustData = errors.New("sensing: not enough data for trust estimation")

// EstimateTrust runs the iterative truth-discovery weighting.
func EstimateTrust(obs []*Observation, opts TrustOptions) (*TrustResult, error) {
	perUser := make(map[string]int)
	samples := make([]trustSample, 0, len(obs))
	for _, o := range obs {
		cell, ok := hourCell(o)
		if !ok {
			continue
		}
		level := o.SPL
		if opts.Calibration != nil {
			if corrected, err := opts.Calibration.Calibrate(o); err == nil {
				level = corrected
			}
		}
		samples = append(samples, trustSample{user: o.UserID, cell: cell, spl: level})
		perUser[o.UserID]++
	}
	users := make([]string, 0, len(perUser))
	keep := make(map[string]bool, len(perUser))
	for u, n := range perUser {
		if n >= minObsPerUser {
			keep[u] = true
			users = append(users, u)
		}
	}
	if len(users) < 2 {
		return nil, ErrNoTrustData
	}
	sort.Strings(users)
	kept := samples[:0]
	for _, s := range samples {
		if keep[s.user] {
			kept = append(kept, s)
		}
	}

	byCell := make(map[string][]int)
	byUser := make(map[string][]int)
	for i, s := range kept {
		byCell[s.cell] = append(byCell[s.cell], i)
		byUser[s.user] = append(byUser[s.user], i)
	}

	weights := make(map[string]float64, len(users))
	for _, u := range users {
		weights[u] = 1
	}
	residuals := make(map[string]float64, len(users))
	const eps = 0.25 // dB², floors the error so perfect users don't dominate

	iterations := 0
	for iter := 0; iter < trustMaxIter; iter++ {
		iterations = iter + 1
		// Weighted-median consensus per cell.
		consensus := make(map[string]float64, len(byCell))
		for cell, idxs := range byCell {
			consensus[cell] = weightedMedian(kept, idxs, weights)
		}
		// Residuals and new weights.
		maxDelta := 0.0
		for _, u := range users {
			idxs := byUser[u]
			sum := 0.0
			for _, i := range idxs {
				sum += math.Abs(kept[i].spl - consensus[kept[i].cell])
			}
			res := sum / float64(len(idxs))
			residuals[u] = res
			next := 1 / (res*res + eps)
			if d := math.Abs(next - weights[u]); d > maxDelta {
				maxDelta = d
			}
			weights[u] = next
		}
		// Normalize to mean 1 so weights are comparable run to run.
		total := 0.0
		for _, w := range weights {
			total += w
		}
		mean := total / float64(len(weights))
		for u := range weights {
			weights[u] /= mean
		}
		if maxDelta < trustTol {
			break
		}
	}
	return &TrustResult{Weights: weights, MeanAbsResidual: residuals, Iterations: iterations}, nil
}

// trustSample is one (user, cell, level) tuple of the truth-discovery
// input.
type trustSample struct {
	user string
	cell string
	spl  float64
}

// weightedMedian computes the weight-weighted median of the samples'
// levels.
func weightedMedian(samples []trustSample, idxs []int, weights map[string]float64) float64 {
	type wv struct {
		v float64
		w float64
	}
	list := make([]wv, 0, len(idxs))
	total := 0.0
	for _, i := range idxs {
		w := weights[samples[i].user]
		if w <= 0 {
			continue
		}
		list = append(list, wv{v: samples[i].spl, w: w})
		total += w
	}
	if len(list) == 0 {
		return 0
	}
	sort.Slice(list, func(a, b int) bool { return list[a].v < list[b].v })
	acc := 0.0
	for _, e := range list {
		acc += e.w
		if acc >= total/2 {
			return e.v
		}
	}
	return list[len(list)-1].v
}

// ObservationSigma converts a user's trust weight into an observation
// error standard deviation for the assimilation engine: baseline
// sensor noise scaled up as reliability drops. Callers can then feed
// untrusted contributions with honest (large) sigmas instead of
// discarding them.
func (r *TrustResult) ObservationSigma(userID string, baseSigmaDB float64) float64 {
	w, ok := r.Weights[userID]
	if !ok || w <= 0 {
		return baseSigmaDB * 10 // unknown users: near-uninformative
	}
	return baseSigmaDB / math.Sqrt(w)
}
