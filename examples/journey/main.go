// Journey: the participatory-sensing experience of Section 4.2. A
// user walks a journey measuring noise at their chosen frequency,
// shares the resulting collaborative map publicly, and a neighbour
// subscribed to journey notifications in the zone receives the
// announcement through the broker (the Figure 3 scenario).
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	broker := mq.NewBroker()
	defer broker.Close()
	store := docstore.NewStore()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		return err
	}
	defer server.Shutdown()
	if _, err := soundcity.Register(server); err != nil {
		return err
	}

	// Two clients: the walker and a neighbour.
	walker, err := server.Login(soundcity.AppID)
	if err != nil {
		return err
	}
	neighbour, err := server.Login(soundcity.AppID)
	if err != nil {
		return err
	}

	// The walker's journey: 12 measurements along a street, 30 s
	// apart (the user picks the frequency in journey mode).
	zones := geo.ParisZones()
	start := geo.Point{Lat: 48.8566, Lon: 2.3522}
	begin := time.Date(2016, 4, 20, 18, 30, 0, 0, time.UTC)
	var journeyObs []*sensing.Observation
	for i := 0; i < 12; i++ {
		journeyObs = append(journeyObs, &sensing.Observation{
			UserID:             server.Accounts.Anonymize(walker.ID),
			DeviceModel:        "ONEPLUS A0001",
			Mode:               sensing.Journey,
			SPL:                62 + 6*float64(i%3),
			Loc:                &sensing.Location{Point: start.Offset(float64(i)*25, float64(i)*10), AccuracyM: 8, Provider: sensing.ProviderGPS},
			Activity:           sensing.ActivityFoot,
			ActivityConfidence: 0.95,
			SensedAt:           begin.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	journey, err := soundcity.BuildFromObservations(server.Accounts.Anonymize(walker.ID), journeyObs, 30*time.Second)
	if err != nil {
		return err
	}
	laeq, err := journey.LAeq()
	if err != nil {
		return err
	}
	fmt.Printf("journey recorded: %d points, %.0f m, LAeq %.1f dB(A)\n",
		len(journey.Points), journey.Length(), laeq)

	// The neighbour subscribes to journey notifications in the zone
	// before the walker shares.
	zone := zones.ZoneID(start)
	if err := server.Channels.Subscribe(soundcity.AppID, neighbour.ID, soundcity.DatatypeJourney, zone); err != nil {
		return err
	}

	// Share publicly: the store announces it through the broker.
	journey.Visibility = soundcity.Public
	js := soundcity.NewJourneyStore(store, broker, zones)
	id, err := js.Save(journey, walker.ID)
	if err != nil {
		return err
	}
	fmt.Printf("journey %s shared publicly in zone %s\n", id, zone)

	// The neighbour's queue received the announcement.
	consumer, err := broker.Consume(neighbour.Queue, 1)
	if err != nil {
		return err
	}
	defer consumer.Cancel()
	var delivery mq.Delivery
	select {
	case delivery = <-consumer.C():
	case <-time.After(time.Second):
		return fmt.Errorf("no journey notification delivered to %s", neighbour.Queue)
	}
	var note map[string]any
	if err := json.Unmarshal(delivery.Body, &note); err != nil {
		return err
	}
	if err := consumer.Ack(delivery.Tag); err != nil {
		return err
	}
	fmt.Printf("neighbour notified: new public journey %v in %v\n", note["journeyId"], note["zone"])

	// The neighbour lists what they can see.
	visible, err := js.Visible(server.Accounts.Anonymize(neighbour.ID), nil)
	if err != nil {
		return err
	}
	fmt.Printf("neighbour sees %d shared journey(s)\n", len(visible))
	return nil
}
