package sensing

import (
	"math"
	"math/rand"
)

// MicProfile models a phone model's microphone response for raw SPL
// measurements. Section 5.2 of the paper observes that raw SPL
// distributions share one shape across models — a dominant peak at low
// noise levels (phone idle, indoors, often in a pocket) plus a smaller
// bump for active environments — but that the dB(A) position of the
// peak varies model to model (sensor heterogeneity), while phones of
// the same model behave alike.
type MicProfile struct {
	// QuietPeakDB is the model-specific location of the low-noise
	// peak (hardware bias; paper shows roughly 15-45 dB(A) spread).
	QuietPeakDB float64 `json:"quietPeakDb"`
	// QuietSigmaDB is the peak width.
	QuietSigmaDB float64 `json:"quietSigmaDb"`
	// ActiveBumpDB is the center of the active-environment bump.
	ActiveBumpDB float64 `json:"activeBumpDb"`
	// ActiveSigmaDB is the bump width.
	ActiveSigmaDB float64 `json:"activeSigmaDb"`
	// QuietWeight is the probability mass of the quiet component.
	QuietWeight float64 `json:"quietWeight"`
	// BiasDB is the model's offset against a reference class-1 sound
	// level meter, as established at a calibration party. Raw
	// measurements already include it; calibration subtracts it.
	BiasDB float64 `json:"biasDb"`
}

// SampleRawSPL draws a raw dB(A) measurement from the model's mixture.
// The ambient argument shifts both components, so measurements taken
// in genuinely loud places read higher; pass 0 for the population
// average.
func (p MicProfile) SampleRawSPL(rng *rand.Rand, ambientShiftDB float64) float64 {
	var v float64
	if rng.Float64() < p.QuietWeight {
		v = p.QuietPeakDB + p.QuietSigmaDB*rng.NormFloat64()
	} else {
		v = p.ActiveBumpDB + p.ActiveSigmaDB*rng.NormFloat64()
	}
	v += ambientShiftDB
	return clampSPL(v)
}

func clampSPL(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 130 {
		return 130
	}
	return v
}

// SPLBinWidth is the histogram resolution (dB(A)) of the paper's SPL
// distribution figures.
const SPLBinWidth = 1.0

// SPLBins returns the number of 1 dB(A) bins covering [0, 130].
func SPLBins() int { return int(math.Ceil(130 / SPLBinWidth)) }
