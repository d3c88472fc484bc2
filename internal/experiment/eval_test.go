package experiment

import (
	"testing"
)

// TestForecastEvalBeatsPersistence is the acceptance gate: on a seeded
// synthetic deployment with diurnal structure, the ewma-lr model's
// T+30 MAE against ground truth must beat the naive persistence
// baseline, and stay below a pinned absolute bound. CI runs this as
// the forecast-eval smoke.
func TestForecastEvalBeatsPersistence(t *testing.T) {
	res, err := RunEval(EvalConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("forecasts=%d model MAE=%.3f RMSE=%.3f | persistence MAE=%.3f RMSE=%.3f | improvement=%.1f%%",
		res.Forecasts, res.ModelMAE, res.ModelRMSE, res.PersistMAE, res.PersistRMSE, 100*res.Improvement())
	if res.Forecasts == 0 {
		t.Fatal("eval scored no forecasts")
	}
	if res.ModelMAE >= res.PersistMAE {
		t.Fatalf("model MAE %.3f does not beat persistence MAE %.3f", res.ModelMAE, res.PersistMAE)
	}
	if res.ModelRMSE >= res.PersistRMSE {
		t.Fatalf("model RMSE %.3f does not beat persistence RMSE %.3f", res.ModelRMSE, res.PersistRMSE)
	}
	// Pinned absolute bound: the deployment's diurnal swing is ±6 dB
	// and per-sample noise 3 dB; a usable forecaster stays well under
	// 2 dB MAE at T+30.
	if res.ModelMAE > 2.0 {
		t.Fatalf("model MAE %.3f above the pinned 2.0 dB bound", res.ModelMAE)
	}
}

// TestForecastEvalDeterministic: the eval is a pure function of its
// seed.
func TestForecastEvalDeterministic(t *testing.T) {
	a, err := RunEval(EvalConfig{Seed: 7, Span: 3 * 60 * 60 * 1e9, Zones: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEval(EvalConfig{Seed: 7, Span: 3 * 60 * 60 * 1e9, Zones: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical seeds produced different scorecards:\n%+v\n%+v", a, b)
	}
}
