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
	return 10 * math.Log10(sum/float64(len(levelsDB))), nil
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
			Day:          d,
			LAeqDB:       laeq,
			PeakDB:       peak,
			Band:         BandOf(laeq),
			Measurements: len(levels),
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
			Month:        m,
			LAeqDB:       laeq,
			Band:         BandOf(laeq),
			Days:         monthDays[m],
			Measurements: len(byMonth[m]),
		})
	}
	return report, nil
}

// parseDay is a helper validating dashboard day strings.
func parseDay(s string) (time.Time, error) {
	return time.Parse("2006-01-02", s)
}
