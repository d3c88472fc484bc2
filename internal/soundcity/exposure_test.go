package soundcity

import (
	"math"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

func TestLAeqEnergeticMean(t *testing.T) {
	// LAeq of equal levels is that level.
	got, err := LAeq([]float64{60, 60, 60})
	if err != nil || math.Abs(got-60) > 1e-9 {
		t.Fatalf("LAeq equal = %v, %v", got, err)
	}
	// Energetic mean weighs loud samples much harder than the
	// arithmetic mean: LAeq(40, 80) ≈ 77.
	got, err = LAeq([]float64{40, 80})
	if err != nil {
		t.Fatal(err)
	}
	if got < 76 || got > 78 {
		t.Fatalf("LAeq(40,80) = %.2f, want ~77", got)
	}
	if _, err := LAeq(nil); err == nil {
		t.Fatal("LAeq of nothing must fail")
	}
}

func TestBandOf(t *testing.T) {
	tests := []struct {
		db   float64
		want HealthBand
	}{
		{30, BandSafe},
		{54.9, BandSafe},
		{55, BandModerate},
		{64.9, BandModerate},
		{65, BandHigh},
		{69.9, BandHigh},
		{70, BandHarmful},
		{100, BandHarmful},
	}
	for _, tt := range tests {
		if got := BandOf(tt.db); got != tt.want {
			t.Errorf("BandOf(%.1f) = %v, want %v", tt.db, got, tt.want)
		}
	}
}

func exposureObs(user string, at time.Time, spl float64) *sensing.Observation {
	return &sensing.Observation{
		UserID:             user,
		DeviceModel:        "LGE NEXUS 5",
		Mode:               sensing.Opportunistic,
		SPL:                spl,
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           at,
	}
}

func TestBuildExposureReport(t *testing.T) {
	day1 := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	day2 := time.Date(2016, 3, 2, 9, 0, 0, 0, time.UTC)
	nextMonth := time.Date(2016, 4, 5, 9, 0, 0, 0, time.UTC)
	obs := []*sensing.Observation{
		exposureObs("u1", day1, 50),
		exposureObs("u1", day1.Add(time.Hour), 70),
		exposureObs("u1", day2, 60),
		exposureObs("u1", nextMonth, 40),
		exposureObs("u2", day1, 100), // another user, excluded
	}
	report, err := BuildExposureReport("u1", obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Daily) != 3 {
		t.Fatalf("daily entries = %d, want 3", len(report.Daily))
	}
	if report.Daily[0].Day != "2016-03-01" || report.Daily[0].Measurements != 2 {
		t.Fatalf("day1 = %+v", report.Daily[0])
	}
	if report.Daily[0].PeakDB != 70 {
		t.Fatalf("day1 peak = %v", report.Daily[0].PeakDB)
	}
	// LAeq(50, 70) ≈ 67, band high.
	if report.Daily[0].LAeqDB < 66 || report.Daily[0].LAeqDB > 68 {
		t.Fatalf("day1 LAeq = %.2f", report.Daily[0].LAeqDB)
	}
	if len(report.Monthly) != 2 {
		t.Fatalf("monthly entries = %d, want 2", len(report.Monthly))
	}
	if report.Monthly[0].Month != "2016-03" || report.Monthly[0].Days != 2 || report.Monthly[0].Measurements != 3 {
		t.Fatalf("month = %+v", report.Monthly[0])
	}
}

func TestBuildExposureReportCalibrated(t *testing.T) {
	at := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	obs := []*sensing.Observation{exposureObs("u1", at, 60)}
	calib := sensing.NewCalibrationDB()
	if err := calib.Add(sensing.CalibrationEntry{Model: "LGE NEXUS 5", BiasDB: 10}); err != nil {
		t.Fatal(err)
	}
	report, err := BuildExposureReport("u1", obs, calib)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.Daily[0].LAeqDB-50) > 1e-9 {
		t.Fatalf("calibrated LAeq = %.2f, want 50", report.Daily[0].LAeqDB)
	}
}

func TestBuildExposureReportNoData(t *testing.T) {
	if _, err := BuildExposureReport("ghost", nil, nil); err == nil {
		t.Fatal("report for user without observations must fail")
	}
}

func TestParseDay(t *testing.T) {
	if _, err := parseDay("2016-03-01"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseDay("01/03/2016"); err == nil {
		t.Fatal("wrong format must fail")
	}
}

// parseDay is a helper validating dashboard day strings.
func parseDay(s string) (time.Time, error) {
	return time.Parse("2006-01-02", s)
}
