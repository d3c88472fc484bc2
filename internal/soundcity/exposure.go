package soundcity

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

// Quantified self (Section 4.2, experience 1): SoundCity shows each
// user their daily and monthly noise exposure in relation to its
// health impact, using the WHO community-noise guidance bands.

// HealthBand classifies an exposure level.
type HealthBand int

// Health bands derived from the WHO guidelines for community noise:
// sustained exposure above 55 dB(A) causes serious annoyance and
// above 70 dB(A) risks hearing impairment and cardiovascular effects.
const (
	BandSafe HealthBand = iota + 1
	BandModerate
	BandHigh
	BandHarmful
)

// String implements fmt.Stringer.
func (b HealthBand) String() string {
	switch b {
	case BandSafe:
		return "safe"
	case BandModerate:
		return "moderate"
	case BandHigh:
		return "high"
	case BandHarmful:
		return "harmful"
	default:
		return fmt.Sprintf("HealthBand(%d)", int(b))
	}
}

// BandOf classifies an equivalent level.
func BandOf(laeqDB float64) HealthBand {
	switch {
	case laeqDB < 55:
		return BandSafe
	case laeqDB < 65:
		return BandModerate
	case laeqDB < 70:
		return BandHigh
	default:
		return BandHarmful
	}
}

// LAeq computes the equivalent continuous sound level of a set of
// measurements: the energetic (not arithmetic) mean,
// 10·log10(mean(10^(L/10))).
func LAeq(levelsDB []float64) (float64, error) {
	if len(levelsDB) == 0 {
		return 0, errors.New("soundcity: LAeq of no measurements")
	}
	sum := 0.0
	for _, l := range levelsDB {
		sum += math.Pow(10, l/10)
	}
	return laeqOf(sum, len(levelsDB)), nil
}

// laeqOf is LAeq of n levels whose energies, 10^(L/10), sum to sum.
func laeqOf(sum float64, n int) float64 {
	return 10 * math.Log10(sum/float64(n))
}

// DayExposure is one day's summary for the user dashboard.
type DayExposure struct {
	Day          string     `json:"day"` // "2015-09-14"
	LAeqDB       float64    `json:"laeqDb"`
	PeakDB       float64    `json:"peakDb"`
	Band         HealthBand `json:"band"`
	Measurements int        `json:"measurements"`
}

// MonthExposure aggregates a month.
type MonthExposure struct {
	Month        string     `json:"month"` // "2015-09"
	LAeqDB       float64    `json:"laeqDb"`
	Band         HealthBand `json:"band"`
	Days         int        `json:"days"`
	Measurements int        `json:"measurements"`
}

// ExposureReport is the dashboard payload for one user.
type ExposureReport struct {
	UserID  string          `json:"userId"`
	Daily   []DayExposure   `json:"daily"`
	Monthly []MonthExposure `json:"monthly"`
}

// BuildExposureReport computes a user's daily and monthly exposure
// from their calibrated observations. The calibration database, when
// non-nil, removes the device-model bias first (Section 5.2).
func BuildExposureReport(userID string, obs []*sensing.Observation, calib *sensing.CalibrationDB) (*ExposureReport, error) {
	f := newExposureFold(userID, calib)
	for _, o := range obs {
		f.add(o)
	}
	return f.report()
}

// exposureFold builds an ExposureReport one observation at a time, so
// that a caller rebuilding observations from stored rows can reuse one
// Observation for all of them. It keeps each day's energies (10^(L/10)
// per level, the terms of LAeq's sum) in arrival order; a month sums
// the same energies in the same order LAeq would over its days' levels,
// so the report is bit for bit the one LAeq over grouped levels gives.
type exposureFold struct {
	userID string
	calib  *sensing.CalibrationDB
	days   []dayFold
	// byDate maps a calendar date, as dateKey packs it, to its day.
	byDate map[int64]int
}

// dayFold is one day's levels as the fold keeps them.
type dayFold struct {
	day      string // "2015-09-14"
	energies []float64
	peak     float64
}

func newExposureFold(userID string, calib *sensing.CalibrationDB) *exposureFold {
	return &exposureFold{userID: userID, calib: calib, byDate: make(map[int64]int)}
}

// dateKey packs a calendar date into one integer, distinct per date.
func dateKey(year int, month time.Month, day int) int64 {
	return int64(year)<<9 | int64(month)<<5 | int64(day)
}

// add folds in o, unless it is another user's. o is not retained.
func (f *exposureFold) add(o *sensing.Observation) {
	if o.UserID != f.userID {
		return
	}
	level := o.SPL
	if f.calib != nil {
		if corrected, err := f.calib.Calibrate(o); err == nil {
			level = corrected
		}
	}
	// The day is the sensing time's date in its own zone, formatted once
	// per date.
	y, m, d := o.SensedAt.Date()
	i, ok := f.byDate[dateKey(y, m, d)]
	if !ok {
		i = len(f.days)
		f.byDate[dateKey(y, m, d)] = i
		f.days = append(f.days, dayFold{day: o.SensedAt.Format("2006-01-02"), peak: level})
	}
	day := &f.days[i]
	day.energies = append(day.energies, math.Pow(10, level/10))
	if level > day.peak {
		day.peak = level
	}
}

// report returns the report of what was folded in, an error when none
// of it was the user's.
func (f *exposureFold) report() (*ExposureReport, error) {
	if len(f.days) == 0 {
		return nil, fmt.Errorf("soundcity: no observations for user %q", f.userID)
	}
	sort.Slice(f.days, func(i, j int) bool { return f.days[i].day < f.days[j].day })
	report := &ExposureReport{UserID: f.userID}
	for _, d := range f.days {
		sum := 0.0
		for _, e := range d.energies {
			sum += e
		}
		laeq := laeqOf(sum, len(d.energies))
		report.Daily = append(report.Daily, DayExposure{
			Day:          d.day,
			LAeqDB:       laeq,
			PeakDB:       d.peak,
			Band:         BandOf(laeq),
			Measurements: len(d.energies),
		})
	}
	// Days sorted by date are grouped by month, and the months come in
	// order.
	for first := 0; first < len(f.days); {
		month := f.days[first].day[:7]
		end, sum, n := first, 0.0, 0
		for ; end < len(f.days) && f.days[end].day[:7] == month; end++ {
			for _, e := range f.days[end].energies {
				sum += e
			}
			n += len(f.days[end].energies)
		}
		laeq := laeqOf(sum, n)
		report.Monthly = append(report.Monthly, MonthExposure{
			Month:        month,
			LAeqDB:       laeq,
			Band:         BandOf(laeq),
			Days:         end - first,
			Measurements: n,
		})
		first = end
	}
	return report, nil
}
