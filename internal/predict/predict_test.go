package predict

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
)

var t0 = time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC)

// mkBuckets builds an ascending bucket series ending just before asOf:
// levels[i] becomes one bucket of n samples at that level, 5 minutes
// apart, the last one immediately before t0.
func mkBuckets(levels []float64, n int) []series.Bucket {
	out := make([]series.Bucket, 0, len(levels))
	start := t0.Add(-time.Duration(len(levels)) * 5 * time.Minute)
	for i, l := range levels {
		var a series.Agg
		for j := 0; j < n; j++ {
			a.Add(l)
		}
		out = append(out, series.Bucket{
			Start:  start.Add(time.Duration(i) * 5 * time.Minute).UnixMilli(),
			Count:  a.Count,
			Energy: a.Energy,
		})
	}
	return out
}

func TestForecastFlatSeriesPredictsLevel(t *testing.T) {
	m := NewModel(Config{})
	fc, ok := m.ForecastZone("FR75001", mkBuckets([]float64{60, 60, 60, 60, 60, 60}, 10), t0)
	if !ok {
		t.Fatal("expected a forecast for a warm zone")
	}
	if math.Abs(fc.ValueDB-60) > 0.01 {
		t.Fatalf("flat 60 dB history must forecast ~60 dB, got %.3f", fc.ValueDB)
	}
	if fc.Basis != "ewma-lr" {
		t.Fatalf("basis = %q, want ewma-lr", fc.Basis)
	}
	if math.Abs(fc.TrendDBPerHour) > 0.01 {
		t.Fatalf("flat history must fit ~zero trend, got %.3f dB/h", fc.TrendDBPerHour)
	}
	if got := fc.Target.Sub(fc.GeneratedAt); got != DefaultHorizon {
		t.Fatalf("target-generatedAt = %v, want %v", got, DefaultHorizon)
	}
}

func TestForecastLeadsRisingRamp(t *testing.T) {
	// 2 dB per bucket ramp: persistence (last value) lags; the
	// regression term must put the forecast above the last bucket.
	m := NewModel(Config{})
	fc, ok := m.ForecastZone("z", mkBuckets([]float64{50, 52, 54, 56, 58, 60}, 10), t0)
	if !ok {
		t.Fatal("expected a forecast")
	}
	if fc.ValueDB <= fc.LastDB {
		t.Fatalf("rising ramp: forecast %.2f must lead the last bucket %.2f", fc.ValueDB, fc.LastDB)
	}
	if fc.TrendDBPerHour < 10 {
		t.Fatalf("24 dB/h ramp: fitted trend %.2f dB/h too shallow", fc.TrendDBPerHour)
	}
}

func TestForecastColdZoneNotNaN(t *testing.T) {
	m := NewModel(Config{})
	cases := []struct {
		name    string
		buckets []series.Bucket
	}{
		{"no buckets", nil},
		{"too few buckets", mkBuckets([]float64{60, 61}, 5)},
		{"all empty buckets", []series.Bucket{
			{Start: t0.Add(-10 * time.Minute).UnixMilli()},
			{Start: t0.Add(-5 * time.Minute).UnixMilli()},
		}},
		{"zero-count with junk sums", []series.Bucket{
			{Start: t0.Add(-20 * time.Minute).UnixMilli(), Energy: 100},
			{Start: t0.Add(-15 * time.Minute).UnixMilli(), Energy: 100},
			{Start: t0.Add(-10 * time.Minute).UnixMilli(), Energy: 100},
			{Start: t0.Add(-5 * time.Minute).UnixMilli(), Energy: 100},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc, ok := m.ForecastZone("z", tc.buckets, t0)
			if ok {
				t.Fatalf("cold zone must yield no forecast, got %+v", fc)
			}
		})
	}
}

func TestForecastSkipsNonFiniteBuckets(t *testing.T) {
	// A corrupt aggregate (zero energy ⇒ LAeq = −Inf, NaN sums) must
	// be skipped, not poison the fit.
	m := NewModel(Config{})
	buckets := mkBuckets([]float64{60, 60, 60, 60, 60, 60}, 10)
	buckets = append(buckets,
		series.Bucket{Start: t0.Add(-90 * time.Minute).UnixMilli(), Count: 5, Energy: 0}, // LAeq = -Inf
		series.Bucket{Start: t0.Add(-95 * time.Minute).UnixMilli(), Count: 5, Energy: math.NaN()},
	)
	fc, ok := m.ForecastZone("z", buckets, t0)
	if !ok {
		t.Fatal("expected a forecast from the six good buckets")
	}
	if math.IsNaN(fc.ValueDB) || math.IsInf(fc.ValueDB, 0) {
		t.Fatalf("forecast must be finite, got %v", fc.ValueDB)
	}
	if fc.Buckets != 6 {
		t.Fatalf("fit must use exactly the 6 good buckets, used %d", fc.Buckets)
	}
	if math.Abs(fc.ValueDB-60) > 0.01 {
		t.Fatalf("forecast %.3f, want ~60", fc.ValueDB)
	}
}

func TestForecastIgnoresFutureBuckets(t *testing.T) {
	// Buckets at or after asOf must not leak into the fit (the eval
	// harness preloads the whole timeline into one DB).
	m := NewModel(Config{})
	buckets := mkBuckets([]float64{60, 60, 60, 60, 60, 60}, 10)
	var loud series.Agg
	for i := 0; i < 10; i++ {
		loud.Add(100)
	}
	buckets = append(buckets, series.Bucket{Start: t0.UnixMilli(), Count: loud.Count, Energy: loud.Energy})
	fc, ok := m.ForecastZone("z", buckets, t0)
	if !ok {
		t.Fatal("expected forecast")
	}
	if math.Abs(fc.ValueDB-60) > 0.01 {
		t.Fatalf("future bucket leaked into the fit: %.3f", fc.ValueDB)
	}
}

func TestForecastDegenerateRegressionFallsBackToEWMA(t *testing.T) {
	// All buckets in the same instant: zero variance in x.
	var a series.Agg
	for i := 0; i < 4; i++ {
		a.Add(58)
	}
	start := t0.Add(-5 * time.Minute).UnixMilli()
	b := series.Bucket{Start: start, Count: a.Count, Energy: a.Energy}
	buckets := []series.Bucket{b, b, b, b}
	fc, ok := NewModel(Config{}).ForecastZone("z", buckets, t0)
	if !ok {
		t.Fatal("expected forecast")
	}
	if fc.Basis != "ewma" {
		t.Fatalf("degenerate regression must fall back to ewma, basis=%q", fc.Basis)
	}
	if math.Abs(fc.ValueDB-58) > 0.01 {
		t.Fatalf("ewma fallback %.3f, want 58", fc.ValueDB)
	}
}

func TestForecastClampsRunawayExtrapolation(t *testing.T) {
	m := NewModel(Config{})
	m.blend = 1
	fc, ok := m.ForecastZone("z",
		mkBuckets([]float64{40, 60, 80, 100, 115, 119}, 3), t0)
	if !ok {
		t.Fatal("expected forecast")
	}
	if fc.ValueDB > maxForecastDB || fc.ValueDB < minForecastDB {
		t.Fatalf("forecast %.2f outside [%d, %d]", fc.ValueDB, minForecastDB, maxForecastDB)
	}
}

// seedDB builds a series DB with a deterministic multi-zone history.
func seedDB(t *testing.T) *series.DB {
	t.Helper()
	db := series.New(series.Options{})
	var lsn uint64
	for b := 0; b < 24; b++ {
		ts := t0.Add(time.Duration(b-24) * 5 * time.Minute)
		var pts []series.Point
		for z := 1; z <= 4; z++ {
			base := 50 + float64(z)*3
			for i := 0; i < 8; i++ {
				pts = append(pts, series.Point{
					TS:    ts.Add(time.Duration(i) * 20 * time.Second).UnixMilli(),
					Value: base + float64(b)*0.3 + float64(i%3),
					Zone:  zoneName(z),
				})
			}
		}
		lsn++
		db.AppendBatch(lsn, pts)
	}
	return db
}

func zoneName(z int) string { return []string{"", "FR75001", "FR75002", "FR75003", "FR75004"}[z] }

type dbSource struct{ db *series.DB }

func (s dbSource) SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error) {
	bs, err := s.db.ZoneBuckets(ctx, zone, from, to)
	return bs, true, err
}

func (s dbSource) SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error) {
	m, err := s.db.AllBuckets(ctx, from, to)
	return m, true, err
}

func TestForecastDeterministic(t *testing.T) {
	// Same seeded rollup history ⇒ bit-identical forecasts, run to
	// run and sweep vs single-zone.
	clk := simclock.NewSim(t0)
	f1 := New(dbSource{seedDB(t)}, Config{}, clk)
	f2 := New(dbSource{seedDB(t)}, Config{}, clk)
	ctx := context.Background()
	s1, err := f1.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f2.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 4 || len(s2) != 4 {
		t.Fatalf("expected 4 forecast zones, got %d and %d", len(s1), len(s2))
	}
	for zone, a := range s1 {
		b, ok := s2[zone]
		if !ok {
			t.Fatalf("zone %s missing from second run", zone)
		}
		if a != b {
			t.Fatalf("forecasts for %s differ across identical runs:\n%+v\n%+v", zone, a, b)
		}
		single, ok, err := f1.ZoneForecast(ctx, zone)
		if err != nil || !ok {
			t.Fatalf("single-zone forecast for %s: ok=%v err=%v", zone, ok, err)
		}
		if single != a {
			t.Fatalf("sweep and single-zone forecasts for %s differ:\n%+v\n%+v", zone, a, single)
		}
	}
}

func TestSchedulerRunOnceAnnouncesAndCaches(t *testing.T) {
	clk := simclock.NewSim(t0)
	f := New(dbSource{seedDB(t)}, Config{}, clk)
	var announced map[string]Forecast
	s := NewScheduler(f, time.Minute, func(m map[string]Forecast) { announced = m })
	got, err := s.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("expected 4 zones, got %d", len(got))
	}
	if len(announced) != 4 {
		t.Fatalf("announce callback saw %d zones, want 4", len(announced))
	}
}

func TestSchedulerStartStop(t *testing.T) {
	f := New(dbSource{seedDB(t)}, Config{}, simclock.NewSim(t0))
	var swept atomic.Bool
	s := NewScheduler(f, 10*time.Millisecond, func(map[string]Forecast) { swept.Store(true) })
	s.Start()
	s.Start() // idempotent
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	if !swept.Load() {
		t.Fatal("scheduler never swept")
	}
}

func TestForecasterNoSeries(t *testing.T) {
	f := New(noSeriesSource{}, Config{}, simclock.NewSim(t0))
	if _, _, err := f.ZoneForecast(context.Background(), "FR75001"); err != ErrNoSeries {
		t.Fatalf("err = %v, want ErrNoSeries", err)
	}
	if _, err := f.Sweep(context.Background()); err != ErrNoSeries {
		t.Fatalf("err = %v, want ErrNoSeries", err)
	}
}

type noSeriesSource struct{}

func (noSeriesSource) SeriesZoneBuckets(context.Context, string, time.Time, time.Time) ([]series.Bucket, bool, error) {
	return nil, false, nil
}

func (noSeriesSource) SeriesAllBuckets(context.Context, time.Time, time.Time) (map[string][]series.Bucket, bool, error) {
	return nil, false, nil
}
