package sensing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProviderStringParseRoundTrip(t *testing.T) {
	for _, p := range append(providers(), ProviderNone) {
		got, err := ParseProvider(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProvider(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProvider("carrier-pigeon"); err == nil {
		t.Fatal("unknown provider must fail")
	}
}

func TestDefaultMixSampleShares(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mix := defaultOpportunisticMix()
	counts := map[Provider]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[mix.Sample(rng)]++
	}
	gps := float64(counts[ProviderGPS]) / n
	network := float64(counts[ProviderNetwork]) / n
	fused := float64(counts[ProviderFused]) / n
	if math.Abs(gps-0.07) > 0.01 || math.Abs(network-0.86) > 0.01 || math.Abs(fused-0.07) > 0.01 {
		t.Fatalf("sampled shares gps=%.3f network=%.3f fused=%.3f", gps, network, fused)
	}
}

func TestShiftTowardGPSConservesMass(t *testing.T) {
	f := func(points uint8) bool {
		p := float64(points%100) / 100
		base := defaultOpportunisticMix()
		shifted := base.ShiftTowardGPS(p)
		before := base.GPS + base.Network + base.Fused
		after := shifted.GPS + shifted.Network + shifted.Fused
		return math.Abs(before-after) < 1e-9 &&
			shifted.GPS >= base.GPS && shifted.Network >= 0 && shifted.Fused >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixForMode(t *testing.T) {
	base := defaultOpportunisticMix()
	if got := MixForMode(base, Opportunistic); got != base {
		t.Fatal("opportunistic mode must keep the base mix")
	}
	manual := MixForMode(base, Manual)
	if math.Abs(manual.GPS-base.GPS-0.20) > 1e-9 {
		t.Fatalf("manual GPS gain = %.3f, want 0.20", manual.GPS-base.GPS)
	}
	journey := MixForMode(base, Journey)
	if math.Abs(journey.GPS-base.GPS-0.40) > 1e-9 {
		t.Fatalf("journey GPS gain = %.3f, want 0.40", journey.GPS-base.GPS)
	}
}

func TestSampleAccuracyRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	inRange := func(p Provider, lo, hi float64, minShare float64) {
		t.Helper()
		count := 0
		for i := 0; i < n; i++ {
			a := SampleAccuracy(p, rng)
			if a < 3 || a > 2000 {
				t.Fatalf("%v accuracy %.1f outside clamp [3,2000]", p, a)
			}
			if a >= lo && a < hi {
				count++
			}
		}
		if share := float64(count) / n; share < minShare {
			t.Fatalf("%v: share in [%g,%g) = %.3f, want >= %.2f", p, lo, hi, share, minShare)
		}
	}
	inRange(ProviderGPS, 6, 20, 0.60)
	inRange(ProviderNetwork, 20, 50, 0.50)
	inRange(ProviderFused, 20, 500, 0.60)
	if got := SampleAccuracy(ProviderNone, rng); got != 0 {
		t.Fatalf("ProviderNone accuracy = %v, want 0", got)
	}
}

func TestGPSMoreAccurateThanNetworkThanFused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	med := func(p Provider) float64 {
		vals := make([]float64, 5001)
		for i := range vals {
			vals[i] = SampleAccuracy(p, rng)
		}
		// Median via partial selection is overkill; sort-free approx:
		// use the mean as a robust-enough ordering statistic here.
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	gps, network, fused := med(ProviderGPS), med(ProviderNetwork), med(ProviderFused)
	if !(gps < network && network < fused) {
		t.Fatalf("accuracy ordering violated: gps=%.1f network=%.1f fused=%.1f", gps, network, fused)
	}
}

func TestAccuracyBucketLabels(t *testing.T) {
	labels := AccuracyBucketLabels()
	if len(labels) != len(AccuracyBuckets)-1 {
		t.Fatalf("labels = %d, want %d", len(labels), len(AccuracyBuckets)-1)
	}
	if labels[0] != "[0-6m)" {
		t.Fatalf("first label = %q", labels[0])
	}
}

// providers lists the localizing providers (excluding ProviderNone).
func providers() []Provider {
	return []Provider{ProviderGPS, ProviderNetwork, ProviderFused}
}

// defaultOpportunisticMix reproduces the overall provider shares of
// Section 5.1: 7% GPS, 86% network, 7% fused.
func defaultOpportunisticMix() ProviderMix {
	return ProviderMix{GPS: 0.07, Network: 0.86, Fused: 0.07}
}
