package sensing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// crowdObs builds a synthetic cross-model observation set: nModels
// models with known biases measure per-cell ambient levels plus
// noise; every model visits every cell.
func crowdObs(t *testing.T, biases map[string]float64, cells int, perCell int, noise float64, seed int64) []*Observation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ambient := make([]float64, cells)
	for c := range ambient {
		ambient[c] = 40 + 15*rng.Float64()
	}
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	var out []*Observation
	for model, bias := range biases {
		for c := 0; c < cells; c++ {
			for k := 0; k < perCell; k++ {
				out = append(out, &Observation{
					UserID:             "u-" + model,
					DeviceModel:        model,
					Mode:               Opportunistic,
					SPL:                clampSPL(ambient[c] + bias + noise*rng.NormFloat64()),
					Activity:           ActivityStill,
					ActivityConfidence: 0.9,
					// Hour encodes the cell (the default Cell func).
					SensedAt: base.Add(time.Duration(c%24) * time.Hour),
				})
			}
		}
	}
	return out
}

func TestCrowdCalibrateRecoversRelativeBiases(t *testing.T) {
	biases := map[string]float64{"A": -6, "B": 0, "C": 5, "D": 11}
	obs := crowdObs(t, biases, 12, 30, 2.0, 1)
	res, err := CrowdCalibrate(obs, CrowdCalOptions{Anchors: map[string]float64{"B": 0}})
	if err != nil {
		t.Fatal(err)
	}
	for model, want := range biases {
		got := res.Biases[model]
		if math.Abs(got-want) > 1.0 {
			t.Errorf("bias[%s] = %.2f, want %.2f (±1 dB)", model, got, want)
		}
	}
	if res.ObsUsed != len(obs) {
		t.Fatalf("used %d of %d observations", res.ObsUsed, len(obs))
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

func TestCrowdCalibrateZeroMedianGauge(t *testing.T) {
	biases := map[string]float64{"A": -4, "B": 0, "C": 4}
	obs := crowdObs(t, biases, 10, 25, 1.5, 2)
	res, err := CrowdCalibrate(obs, CrowdCalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Without anchors only relative biases are identifiable; the
	// median of the estimates is pinned to zero.
	vals := make([]float64, 0, len(res.Biases))
	for _, b := range res.Biases {
		vals = append(vals, b)
	}
	if med := medianOf(vals); math.Abs(med) > 0.2 {
		t.Fatalf("median of biases = %.2f, want ~0", med)
	}
	// Relative spacing preserved.
	if d := res.Biases["C"] - res.Biases["A"]; math.Abs(d-8) > 1.2 {
		t.Fatalf("C-A bias gap = %.2f, want ~8", d)
	}
}

func TestCrowdCalibrateAnchorMissing(t *testing.T) {
	obs := crowdObs(t, map[string]float64{"A": 0, "B": 3}, 8, 20, 1, 3)
	_, err := CrowdCalibrate(obs, CrowdCalOptions{Anchors: map[string]float64{"GHOST": 0}})
	if !errors.Is(err, ErrInsufficientOverlap) {
		t.Fatalf("missing anchor = %v, want ErrInsufficientOverlap", err)
	}
}

func TestCrowdCalibrateInsufficientData(t *testing.T) {
	if _, err := CrowdCalibrate(nil, CrowdCalOptions{}); !errors.Is(err, ErrInsufficientOverlap) {
		t.Fatalf("empty input = %v", err)
	}
	// A single model has no cross-model information.
	obs := crowdObs(t, map[string]float64{"A": 2}, 8, 20, 1, 4)
	if _, err := CrowdCalibrate(obs, CrowdCalOptions{}); !errors.Is(err, ErrInsufficientOverlap) {
		t.Fatalf("single model = %v", err)
	}
}

func TestCrowdCalibrateFiltersThinModels(t *testing.T) {
	obs := crowdObs(t, map[string]float64{"A": 0, "B": 3}, 10, 25, 1, 5)
	// Add a model with only 2 observations: excluded by
	// minObsPerModel.
	thin := crowdObs(t, map[string]float64{"THIN": 20}, 1, 2, 1, 6)
	res, err := CrowdCalibrate(append(obs, thin...), CrowdCalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, present := res.Biases["THIN"]; present {
		t.Fatal("thin model must be filtered out")
	}
}

func TestCrowdCalibrateCustomCellFunc(t *testing.T) {
	biases := map[string]float64{"A": -3, "B": 3}
	obs := crowdObs(t, biases, 10, 25, 1, 7)
	// A cell function using minute buckets (here constant) still
	// works because all observations collapse into shared cells.
	res, err := CrowdCalibrate(obs, CrowdCalOptions{
		cell: func(o *Observation) (string, bool) {
			return fmt.Sprintf("z%d", o.SensedAt.Hour()%4), true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Biases["B"] - res.Biases["A"]; math.Abs(d-6) > 1.5 {
		t.Fatalf("B-A gap = %.2f, want ~6", d)
	}
}

func TestCrowdCalResultApplyToDB(t *testing.T) {
	res := &CrowdCalResult{Biases: map[string]float64{"A": 2.5, "B": -1}}
	db := NewCalibrationDB()
	if err := res.ApplyToDB(db); err != nil {
		t.Fatal(err)
	}
	got, err := db.Bias("A")
	if err != nil || got != 2.5 {
		t.Fatalf("db bias A = %v, %v", got, err)
	}
	if db.entryCount("B") != 1 {
		t.Fatal("crowd entry for B missing")
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf(nil) != 0 {
		t.Fatal("empty median must be 0")
	}
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if medianOf([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
}
