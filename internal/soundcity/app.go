// Package soundcity implements the SoundCity application of Section 4
// on top of the GoFlow middleware: the noise-monitoring app identity
// and open-data policy, the quantified-self exposure statistics shown
// to users (daily/monthly exposure against WHO health bands), the
// participatory Journey mode with private/community/public sharing,
// and user feedback reports routed through the broker.
package soundcity

import (
	"fmt"

	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/sensing"
)

// AppID is the SoundCity application/exchange id ("SC" in Figure 3).
const AppID = sensing.SoundCityAppID

// AppName is the display name.
const AppName = "SoundCity"

// Datatypes routed for the app.
const (
	DatatypeObservation = "obs"
	DatatypeFeedback    = "feedback"
	DatatypeJourney     = "journey"
	DatatypeForecast    = "forecast"
	DatatypeReroute     = "reroute"
)

// DefaultPolicy is SoundCity's open-data declaration: measured levels
// with coarse context are shared; contributor identity and exact
// device data are not.
func DefaultPolicy() goflow.DataPolicy {
	return goflow.DataPolicy{
		SharedFields: []string{"spl", "zone", "sensedAt", "localized", "accuracyM", "mode"},
	}
}

// Register sets the SoundCity app up on a GoFlow server (exchange
// provisioning included) and returns the app record with its secret.
func Register(server *goflow.Server) (*goflow.App, error) {
	app, err := server.RegisterApp(AppID, AppName, DefaultPolicy())
	if err != nil {
		return nil, fmt.Errorf("register SoundCity: %w", err)
	}
	return app, nil
}
