package sensing

import (
	"fmt"
	"math"
	"math/rand"
)

// Provider is an Android location source (Section 5.1).
type Provider int

// Location providers.
const (
	// ProviderNone marks an unlocalized observation.
	ProviderNone Provider = iota
	// ProviderGPS delivers the highest accuracy (most fixes within
	// 6-20 m) but is rarely active (~7% of localized observations).
	ProviderGPS
	// ProviderNetwork (cell/WiFi) is the common case (~86%) with
	// accuracy mostly in the 20-50 m range and a secondary peak just
	// below 100 m.
	ProviderNetwork
	// ProviderFused combines sources for energy efficiency; few
	// models report it and its accuracy is comparatively low.
	ProviderFused
)

// String implements fmt.Stringer.
func (p Provider) String() string {
	switch p {
	case ProviderNone:
		return "none"
	case ProviderGPS:
		return "gps"
	case ProviderNetwork:
		return "network"
	case ProviderFused:
		return "fused"
	default:
		return fmt.Sprintf("Provider(%d)", int(p))
	}
}

// ParseProvider converts a wire string to a Provider.
func ParseProvider(s string) (Provider, error) {
	switch s {
	case "none":
		return ProviderNone, nil
	case "gps":
		return ProviderGPS, nil
	case "network":
		return ProviderNetwork, nil
	case "fused":
		return ProviderFused, nil
	default:
		return 0, fmt.Errorf("sensing: unknown provider %q", s)
	}
}

// ProviderMix is a categorical distribution over location providers
// for localized observations. Weights need not sum to 1; they are
// normalized at sampling time.
type ProviderMix struct {
	GPS     float64 `json:"gps"`
	Network float64 `json:"network"`
	Fused   float64 `json:"fused"`
}

// ShiftTowardGPS returns the mix with share points moved from network
// (and then fused) into GPS, modelling the participatory modes of
// Figure 20: the user holds the phone out, so GPS is available.
func (m ProviderMix) ShiftTowardGPS(points float64) ProviderMix {
	out := m
	moved := math.Min(points, out.Network)
	out.Network -= moved
	out.GPS += moved
	rest := points - moved
	if rest > 0 {
		moved = math.Min(rest, out.Fused)
		out.Fused -= moved
		out.GPS += moved
	}
	return out
}

// MixForMode derives the provider mix for a sensing mode from the
// opportunistic baseline: manual shifts ~20 share points to GPS,
// journey ~40 (Figure 20).
func MixForMode(base ProviderMix, mode Mode) ProviderMix {
	switch mode {
	case Manual:
		return base.ShiftTowardGPS(0.20)
	case Journey:
		return base.ShiftTowardGPS(0.40)
	default:
		return base
	}
}

// Sample draws a provider from the mix.
func (m ProviderMix) Sample(rng *rand.Rand) Provider {
	total := m.GPS + m.Network + m.Fused
	if total <= 0 {
		return ProviderNetwork
	}
	u := rng.Float64() * total
	switch {
	case u < m.GPS:
		return ProviderGPS
	case u < m.GPS+m.Network:
		return ProviderNetwork
	default:
		return ProviderFused
	}
}

// SampleAccuracy draws an OS-reported accuracy estimate (meters) for
// the provider, reproducing the empirical distributions of Figures
// 10-13:
//
//   - GPS: log-normal concentrated in [6,20] m;
//   - network: 75% log-normal in [20,50] m plus a 25% peak just below
//     100 m (cell-tower fixes clamped by the OS);
//   - fused: broad, low accuracy (tens to hundreds of meters).
func SampleAccuracy(p Provider, rng *rand.Rand) float64 {
	switch p {
	case ProviderGPS:
		// median ~11 m, bulk within [6,20].
		return clampAccuracy(lognormal(rng, math.Log(11), 0.32))
	case ProviderNetwork:
		if rng.Float64() < 0.25 {
			// Cell-tower fallback: tight peak just under 100 m.
			return clampAccuracy(90 + rng.Float64()*9)
		}
		// WiFi fixes: median ~32 m, bulk within [20,50].
		return clampAccuracy(lognormal(rng, math.Log(32), 0.28))
	case ProviderFused:
		// Low accuracy: median ~60 m with a heavy tail.
		return clampAccuracy(lognormal(rng, math.Log(60), 0.65))
	default:
		return 0
	}
}

// lognormal draws exp(N(mu, sigma^2)).
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// clampAccuracy bounds accuracy to the plausible Android range.
func clampAccuracy(m float64) float64 {
	if m < 3 {
		return 3
	}
	if m > 2000 {
		return 2000
	}
	return m
}

// AccuracyBuckets are the histogram edges (meters) used by the
// paper's accuracy figures.
var AccuracyBuckets = []float64{0, 6, 10, 20, 30, 50, 75, 100, 150, 250, 500, 1000, 2000}

// AccuracyBucketLabels returns printable labels for AccuracyBuckets
// intervals, e.g. "[20-30m)".
func AccuracyBucketLabels() []string {
	labels := make([]string, 0, len(AccuracyBuckets)-1)
	for i := 0; i+1 < len(AccuracyBuckets); i++ {
		labels = append(labels, fmt.Sprintf("[%g-%gm)", AccuracyBuckets[i], AccuracyBuckets[i+1]))
	}
	return labels
}
