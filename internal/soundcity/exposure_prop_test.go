package soundcity

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/sensing"
)

// oracleExposureReport is the report builder as it was before it became
// a fold: levels grouped by day and by month, each group's LAeq taken
// over its levels. The fold must give its reports bit for bit.
func oracleExposureReport(userID string, obs []*sensing.Observation, calib *sensing.CalibrationDB) (*ExposureReport, error) {
	byDay := make(map[string][]float64)
	for _, o := range obs {
		if o.UserID != userID {
			continue
		}
		level := o.SPL
		if calib != nil {
			if corrected, err := calib.Calibrate(o); err == nil {
				level = corrected
			}
		}
		day := o.SensedAt.Format("2006-01-02")
		byDay[day] = append(byDay[day], level)
	}
	if len(byDay) == 0 {
		return nil, fmt.Errorf("soundcity: no observations for user %q", userID)
	}
	days := make([]string, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Strings(days)
	report := &ExposureReport{UserID: userID}
	byMonth := make(map[string][]float64)
	monthDays := make(map[string]int)
	for _, d := range days {
		levels := byDay[d]
		laeq, err := LAeq(levels)
		if err != nil {
			return nil, err
		}
		peak := levels[0]
		for _, l := range levels[1:] {
			if l > peak {
				peak = l
			}
		}
		report.Daily = append(report.Daily, DayExposure{
			Day: d, LAeqDB: laeq, PeakDB: peak, Band: BandOf(laeq), Measurements: len(levels),
		})
		month := d[:7]
		byMonth[month] = append(byMonth[month], levels...)
		monthDays[month]++
	}
	months := make([]string, 0, len(byMonth))
	for m := range byMonth {
		months = append(months, m)
	}
	sort.Strings(months)
	for _, m := range months {
		laeq, err := LAeq(byMonth[m])
		if err != nil {
			return nil, err
		}
		report.Monthly = append(report.Monthly, MonthExposure{
			Month: m, LAeqDB: laeq, Band: BandOf(laeq), Days: monthDays[m], Measurements: len(byMonth[m]),
		})
	}
	return report, nil
}

// exposureHistory draws a seeded history: observations of two users
// over about three months, in zones of several UTC offsets (so a day's
// date depends on the offset), out of time order, with uncalibrated
// device models among the calibrated.
func exposureHistory(rng *rand.Rand, users []string) []*sensing.Observation {
	zones := []*time.Location{time.UTC, time.FixedZone("", 2*3600), time.FixedZone("", -9*3600-30*60), time.FixedZone("", 13*3600)}
	models := []string{"LGE NEXUS 5", "SAMSUNG GT-I9505", "uncalibrated"}
	base := time.Date(2016, 1, 28, 0, 0, 0, 0, time.UTC)
	obs := make([]*sensing.Observation, 1+rng.Intn(60))
	for i := range obs {
		o := exposureObs(users[rng.Intn(len(users))], base.Add(time.Duration(rng.Int63n(int64(90*24*time.Hour)))).In(zones[rng.Intn(len(zones))]), 20+rng.Float64()*100)
		o.DeviceModel = models[rng.Intn(len(models))]
		obs[i] = o
	}
	return obs
}

func exposureCalibration(t *testing.T) *sensing.CalibrationDB {
	t.Helper()
	calib := sensing.NewCalibrationDB()
	for _, e := range []sensing.CalibrationEntry{{Model: "LGE NEXUS 5", BiasDB: 3.5}, {Model: "SAMSUNG GT-I9505", BiasDB: -2.25}, {Model: "SAMSUNG GT-I9505", BiasDB: -1}} {
		if err := calib.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return calib
}

// TestExposureFoldMatchesOracle: over 200 seeded histories, the report
// folded one observation at a time is, under reflect.DeepEqual, the one
// the grouping builder gives — with and without calibration, and
// whether the observations are handed over as they are or rebuilt, one
// Observation for all, from the rows the exposure route reads.
func TestExposureFoldMatchesOracle(t *testing.T) {
	calib := exposureCalibration(t)
	ctx := context.Background()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal *sensing.CalibrationDB
		if seed%2 == 0 {
			cal = calib
		}
		obs := exposureHistory(rng, []string{"u1", "u2"})
		want, wantErr := oracleExposureReport("u1", obs, cal)
		got, err := BuildExposureReport("u1", obs, cal)
		if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: fold = %+v, %v; oracle = %+v, %v", seed, got, err, want, wantErr)
		}

		// The route's path: stored, read back as rows, rebuilt into one
		// Observation.
		accounts, err := goflow.NewAccounts()
		if err != nil {
			t.Fatal(err)
		}
		dm := goflow.NewDataManager(docstore.NewStore(), accounts, geo.ParisZones())
		for _, o := range obs {
			if _, err := dm.Ingest(AppID, o.UserID, o, o.SensedAt); err != nil {
				t.Fatal(err)
			}
		}
		anon := accounts.Anonymize("u1")
		rows, err := dm.Retrieve(ctx, goflow.Query{AppID: AppID, UserID: anon})
		if err != nil {
			t.Fatal(err)
		}
		var rebuilt []*sensing.Observation
		fold := newExposureFold(anon, cal)
		var o sensing.Observation
		for _, r := range rows {
			ro, err := goflow.ObservationFromRow(r)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt = append(rebuilt, ro)
			if err := goflow.FillObservation(&o, r); err != nil {
				t.Fatal(err)
			}
			fold.add(&o)
		}
		want, wantErr = oracleExposureReport(anon, rebuilt, cal)
		got, err = fold.report()
		if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d, from rows: fold = %+v, %v; oracle = %+v, %v", seed, got, err, want, wantErr)
		}
	}
}
