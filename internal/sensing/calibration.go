package sensing

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// CalibrationDB is the per-model calibration database of Section 5.2:
// the project maintains, per phone model, the measured bias against a
// reference sound level meter, fed by "calibration party" sessions
// with users. The paper's key finding is that calibration per *model*
// (not per device) suffices, because devices of one model behave
// alike.
type CalibrationDB struct {
	mu      sync.RWMutex
	entries map[string][]CalibrationEntry
}

// CalibrationEntry is one reference comparison for a device of a
// given model.
type CalibrationEntry struct {
	Model string `json:"model"`
	// BiasDB is measured_raw - reference, in dB(A).
	BiasDB float64 `json:"biasDb"`
	// Source describes how the entry was produced ("party",
	// "lab", "crowd").
	Source string `json:"source"`
	// At is the calibration time.
	At time.Time `json:"at"`
}

// ErrNotCalibrated reports a model with no calibration entries.
var ErrNotCalibrated = errors.New("sensing: model not calibrated")

// NewCalibrationDB returns an empty calibration database.
func NewCalibrationDB() *CalibrationDB {
	return &CalibrationDB{entries: make(map[string][]CalibrationEntry)}
}

// Add records a calibration entry.
func (db *CalibrationDB) Add(e CalibrationEntry) error {
	if e.Model == "" {
		return errors.New("sensing: calibration entry without model")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries[e.Model] = append(db.entries[e.Model], e)
	return nil
}

// Bias returns the model's calibrated bias: the median of its entries
// (robust against a bad party measurement).
func (db *CalibrationDB) Bias(model string) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entries := db.entries[model]
	if len(entries) == 0 {
		return 0, fmt.Errorf("bias for %q: %w", model, ErrNotCalibrated)
	}
	biases := make([]float64, len(entries))
	for i, e := range entries {
		biases[i] = e.BiasDB
	}
	sort.Float64s(biases)
	n := len(biases)
	if n%2 == 1 {
		return biases[n/2], nil
	}
	return (biases[n/2-1] + biases[n/2]) / 2, nil
}

// Calibrate corrects a raw observation SPL using the model bias; it
// returns the raw value unchanged (and ErrNotCalibrated) for unknown
// models, so pipelines can degrade gracefully.
func (db *CalibrationDB) Calibrate(o *Observation) (float64, error) {
	bias, err := db.Bias(o.DeviceModel)
	if err != nil {
		return o.SPL, err
	}
	return clampSPL(o.SPL - bias), nil
}

// Models returns the calibrated model names, sorted.
func (db *CalibrationDB) Models() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	models := make([]string, 0, len(db.entries))
	for m := range db.entries {
		models = append(models, m)
	}
	sort.Strings(models)
	return models
}
