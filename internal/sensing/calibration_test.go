package sensing

import (
	"errors"
	"testing"
	"time"
)

func TestCalibrationBiasMedian(t *testing.T) {
	db := NewCalibrationDB()
	for _, bias := range []float64{4.0, 5.0, 30.0} { // one bad party reading
		if err := db.Add(CalibrationEntry{Model: "M", BiasDB: bias, Source: "party", At: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Bias("M")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5.0 {
		t.Fatalf("Bias = %v, want median 5.0 (robust to the outlier)", got)
	}
}

func TestCalibrationBiasEvenCount(t *testing.T) {
	db := NewCalibrationDB()
	for _, bias := range []float64{2, 4} {
		if err := db.Add(CalibrationEntry{Model: "M", BiasDB: bias}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Bias("M")
	if err != nil || got != 3 {
		t.Fatalf("Bias = %v, %v, want 3", got, err)
	}
}

func TestCalibrationUnknownModel(t *testing.T) {
	db := NewCalibrationDB()
	if _, err := db.Bias("nope"); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("Bias unknown = %v, want ErrNotCalibrated", err)
	}
	o := validObservation()
	got, err := db.Calibrate(o)
	if !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("Calibrate unknown = %v, want ErrNotCalibrated", err)
	}
	if got != o.SPL {
		t.Fatal("uncalibrated observation must pass through unchanged")
	}
}

func TestCalibrateCorrects(t *testing.T) {
	db := NewCalibrationDB()
	if err := db.Add(CalibrationEntry{Model: "LGE NEXUS 5", BiasDB: 6}); err != nil {
		t.Fatal(err)
	}
	o := validObservation() // SPL 61.5, model NEXUS 5
	got, err := db.Calibrate(o)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55.5 {
		t.Fatalf("Calibrate = %v, want 55.5", got)
	}
}

func TestCalibrationAddValidation(t *testing.T) {
	db := NewCalibrationDB()
	if err := db.Add(CalibrationEntry{Model: ""}); err == nil {
		t.Fatal("entry without model must fail")
	}
}

func TestCalibrationModelsAndCounts(t *testing.T) {
	db := NewCalibrationDB()
	for _, m := range []string{"B", "A", "B"} {
		if err := db.Add(CalibrationEntry{Model: m, BiasDB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	models := db.Models()
	if len(models) != 2 || models[0] != "A" || models[1] != "B" {
		t.Fatalf("Models() = %v", models)
	}
	if db.entryCount("B") != 2 || db.entryCount("A") != 1 || db.entryCount("Z") != 0 {
		t.Fatal("entry counts wrong")
	}
}

// entryCount returns the number of entries for a model.
func (db *CalibrationDB) entryCount(model string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries[model])
}
