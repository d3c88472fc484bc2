package assim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
)

// TestTrustWeightedAssimilation wires truth discovery into the
// assimilation engine: contributors with corrupted sensors get large
// observation sigmas from their trust weights, so the analysis
// discounts them — beating the naive run that trusts everyone
// equally. (The paper's Section 2 data-quality theme, end to end.)
func TestTrustWeightedAssimilation(t *testing.T) {
	const seed = 21
	city, err := RandomCity(CityConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := city.NoiseField(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	background := truth.Clone()
	for i := range background.Values {
		background.Values[i] += 5
	}
	params := BLUEParams{SigmaB: 6, CorrLengthM: 600}
	rng := rand.New(rand.NewSource(seed))

	// Users: three honest, one with a wildly offset sensor.
	type userSpec struct {
		name   string
		offset float64
		noise  float64
	}
	users := []userSpec{
		{"honest-1", 0, 2},
		{"honest-2", 0, 2},
		{"honest-3", 0, 2},
		{"corrupt", +20, 2},
	}
	base := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	var sObs []*sensing.Observation
	var points []geo.Point
	var values []float64
	var owners []string
	for _, u := range users {
		for k := 0; k < 60; k++ {
			r, c := rng.Intn(16), rng.Intn(16)
			p := truth.CellCenter(r, c)
			v := truth.At(r, c) + u.offset + u.noise*rng.NormFloat64()
			points = append(points, p)
			values = append(values, v)
			owners = append(owners, u.name)
			spl := v
			if spl < 0 {
				spl = 0
			}
			if spl > 130 {
				spl = 130
			}
			sObs = append(sObs, &sensing.Observation{
				UserID:             u.name,
				DeviceModel:        "M",
				Mode:               sensing.Opportunistic,
				SPL:                spl,
				Activity:           sensing.ActivityStill,
				ActivityConfidence: 0.9,
				SensedAt:           base.Add(time.Duration(k%24) * time.Hour),
			})
		}
	}

	// Naive: everyone gets the honest sigma.
	naive := make([]Observation, len(points))
	for i := range points {
		naive[i] = Observation{At: points[i], ValueDB: values[i], SigmaDB: 2}
	}
	naiveAnalysis, err := Analyze(background, naive, params)
	if err != nil {
		t.Fatal(err)
	}
	naiveRMSE, err := RMSE(naiveAnalysis, truth)
	if err != nil {
		t.Fatal(err)
	}

	// Trust-weighted: sigma per user from truth discovery, over cells
	// keyed by hour of day.
	trust, err := sensing.EstimateTrust(sObs, sensing.TrustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if trust.Weights["corrupt"] >= trust.Weights["honest-1"]*0.3 {
		t.Fatalf("corrupt user not detected: %.3f vs %.3f",
			trust.Weights["corrupt"], trust.Weights["honest-1"])
	}
	weighted := make([]Observation, len(points))
	for i := range points {
		weighted[i] = Observation{
			At:      points[i],
			ValueDB: values[i],
			SigmaDB: trust.ObservationSigma(owners[i], 2),
		}
	}
	weightedAnalysis, err := Analyze(background, weighted, params)
	if err != nil {
		t.Fatal(err)
	}
	weightedRMSE, err := RMSE(weightedAnalysis, truth)
	if err != nil {
		t.Fatal(err)
	}
	if weightedRMSE >= naiveRMSE {
		t.Fatalf("trust weighting did not help: naive RMSE %.2f vs weighted %.2f", naiveRMSE, weightedRMSE)
	}
	t.Logf("naive RMSE %.2f dB -> trust-weighted %.2f dB (corrupt weight %.3f)",
		naiveRMSE, weightedRMSE, trust.Weights["corrupt"])
}
