// Package sensing defines the mobile-phone-sensing domain model of the
// reproduction: observations (sound-pressure-level measurements with
// optional location and activity context), the sensing modes of the
// SoundCity app (opportunistic, manual, journey), the Android location
// providers with their empirical accuracy behaviour, the per-model
// microphone response model, the activity recognizer output, and the
// per-model calibration database of Section 5.2.
package sensing

import (
	"errors"
	"fmt"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
)

// SoundCityAppID is the SoundCity application/exchange id ("SC" in
// Figure 3). It is defined here, beside the observation model, so the
// phone-side client names the app without linking the server;
// soundcity.AppID is the same constant.
const SoundCityAppID = "SC"

// Mode is the sensing mode that produced an observation (Section 4.2
// of the paper).
type Mode int

// Sensing modes.
const (
	// Opportunistic is the default periodic background sensing.
	Opportunistic Mode = iota + 1
	// Manual is a user-requested measurement ("sense now").
	Manual
	// Journey is participatory sensing along a user-defined path.
	Journey
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Opportunistic:
		return "opportunistic"
	case Manual:
		return "manual"
	case Journey:
		return "journey"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a wire string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "opportunistic":
		return Opportunistic, nil
	case "manual":
		return Manual, nil
	case "journey":
		return Journey, nil
	default:
		return 0, fmt.Errorf("sensing: unknown mode %q", s)
	}
}

// Modes lists all sensing modes.
func Modes() []Mode { return []Mode{Opportunistic, Manual, Journey} }

// Location is a localized fix attached to an observation.
type Location struct {
	Point geo.Point `json:"point"`
	// AccuracyM is the OS-reported accuracy estimate in meters (the
	// radius such that the true position is within it with 68%
	// confidence, per Android semantics).
	AccuracyM float64 `json:"accuracyM"`
	// Provider is the Android location source.
	Provider Provider `json:"provider"`
}

// Observation is one crowd-sensed measurement. It is the unit stored
// by GoFlow and analyzed by every experiment.
type Observation struct {
	ID string `json:"id,omitempty"`
	// UserID is the anonymized contributor id.
	UserID string `json:"userId"`
	// DeviceModel is the phone model string (e.g. "SAMSUNG GT-I9505").
	DeviceModel string `json:"deviceModel"`
	// AppVersion produced the observation ("1.1", "1.2.9", "1.3").
	AppVersion string `json:"appVersion"`
	// Mode is the sensing mode.
	Mode Mode `json:"mode"`
	// SPL is the raw measured sound pressure level in dB(A).
	SPL float64 `json:"spl"`
	// Loc is nil when the observation could not be localized (the
	// ~60% case of the paper).
	Loc *Location `json:"loc,omitempty"`
	// Activity is the recognized user activity.
	Activity Activity `json:"activity"`
	// ActivityConfidence in [0,1]; below the 0.8 cut the activity is
	// reported but treated as unqualified by the analysis.
	ActivityConfidence float64 `json:"activityConfidence"`
	// SensedAt is the on-phone measurement instant.
	SensedAt time.Time `json:"sensedAt"`
	// ReceivedAt is set by the GoFlow server on ingest: the broker's
	// publish instant for a broker message, the server's receive
	// instant for a REST upload; a value the client sent is ignored.
	// Only the simulations' in-process BulkIngest keeps it.
	ReceivedAt time.Time `json:"receivedAt,omitempty"`
}

// Validate checks observation invariants.
func (o *Observation) Validate() error {
	if o.UserID == "" {
		return errors.New("sensing: observation without user id")
	}
	if o.DeviceModel == "" {
		return errors.New("sensing: observation without device model")
	}
	if o.Mode < Opportunistic || o.Mode > Journey {
		return fmt.Errorf("sensing: invalid mode %d", int(o.Mode))
	}
	if o.SPL < 0 || o.SPL > 140 {
		return fmt.Errorf("sensing: SPL %.1f dB(A) out of [0,140]", o.SPL)
	}
	if o.Loc != nil {
		if err := o.Loc.Point.Validate(); err != nil {
			return err
		}
		if o.Loc.AccuracyM <= 0 {
			return errors.New("sensing: localized observation with non-positive accuracy")
		}
	}
	if o.ActivityConfidence < 0 || o.ActivityConfidence > 1 {
		return fmt.Errorf("sensing: activity confidence %.2f out of [0,1]", o.ActivityConfidence)
	}
	if o.SensedAt.IsZero() {
		return errors.New("sensing: observation without sensing time")
	}
	return nil
}

// Localized reports whether the observation carries a location fix.
func (o *Observation) Localized() bool { return o.Loc != nil }
