package soundcity

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
)

// Feedback (Figure 3 and the paper's future-work section): users
// report qualitative perceptions of noisy events at their location;
// reports route through the broker so other clients subscribed to
// feedback in the zone receive them in near real time.

// Feedback is a qualitative user report.
type Feedback struct {
	// Reporter is the anonymized user id.
	Reporter string `json:"reporter"`
	// Where the event was perceived.
	Where geo.Point `json:"where"`
	// Annoyance on the standard 0-10 ICBEN scale.
	Annoyance int `json:"annoyance"`
	// Comment is free text.
	Comment string `json:"comment,omitempty"`
	// At is the report time.
	At time.Time `json:"at"`
}

// Validate checks feedback invariants.
func (f *Feedback) Validate() error {
	if f.Reporter == "" {
		return errors.New("soundcity: feedback without reporter")
	}
	if f.Annoyance < 0 || f.Annoyance > 10 {
		return fmt.Errorf("soundcity: annoyance %d out of [0,10]", f.Annoyance)
	}
	if f.At.IsZero() {
		return errors.New("soundcity: feedback without timestamp")
	}
	return f.Where.Validate()
}

// PublishFeedback routes a feedback report through the client's
// exchange so zone subscribers receive it (the mob1 scenario of
// Figure 3: feedback at the current zone).
func PublishFeedback(broker *mq.Broker, zones *geo.ZoneGrid, clientID string, f *Feedback) error {
	if err := f.Validate(); err != nil {
		return err
	}
	body, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode feedback: %w", err)
	}
	zone := zones.ZoneID(f.Where)
	key := AppID + "." + clientID + "." + DatatypeFeedback + "." + zone
	// Publish on the client's own exchange; the client-id binding
	// forwards it into the app exchange, then to zone subscribers.
	exchange := "E." + clientID
	if _, err := broker.PublishAt(exchange, key, nil, body, f.At); err != nil {
		return fmt.Errorf("publish feedback: %w", err)
	}
	return nil
}
