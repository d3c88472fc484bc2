// Quickstart: stand a GoFlow crowd-sensing stack up in-process,
// register the SoundCity app, log a mobile client in, publish a few
// noise observations through the real broker path, and query them
// back through the data-management API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/urbancivics/goflow/internal/client"
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
	// 1. The middleware: broker + GoFlow server + document store.
	broker := mq.NewBroker()
	defer broker.Close()
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: storage.NewLocal(docstore.NewStore())})
	if err != nil {
		return err
	}
	defer server.Shutdown()
	if _, err := soundcity.Register(server); err != nil {
		return err
	}
	if err := server.StartIngest(); err != nil {
		return err
	}

	// 2. A mobile client: login provisions the private exchange and
	// queue (Figure 3), then the uploader publishes through them.
	cl, err := server.Login(soundcity.AppID)
	if err != nil {
		return err
	}
	fmt.Printf("client logged in: exchange=%s queue=%s\n", cl.Exchange, cl.Queue)

	transport := client.NewMQTransport(broker, cl.Exchange, soundcity.AppID, cl.ID)
	uploader, err := client.NewUploader(client.Config{
		ClientID:   cl.ID,
		AppID:      soundcity.AppID,
		Version:    "1.3",
		BufferSize: 1, // send after each observation
	}, transport)
	if err != nil {
		return err
	}

	// 3. Sense: five measurements around Paris.
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	base := time.Date(2016, 4, 12, 14, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		obs := &sensing.Observation{
			UserID:             "quickstart-user",
			DeviceModel:        "LGE NEXUS 5",
			Mode:               sensing.Manual,
			SPL:                58 + float64(i)*2,
			Loc:                &sensing.Location{Point: paris.Offset(float64(i)*120, 40), AccuracyM: 12, Provider: sensing.ProviderGPS},
			Activity:           sensing.ActivityFoot,
			ActivityConfidence: 0.92,
			SensedAt:           base.Add(time.Duration(i) * 5 * time.Minute),
		}
		if err := uploader.Record(obs); err != nil {
			return err
		}
		if _, err := uploader.Flush(obs.SensedAt, true); err != nil {
			return err
		}
	}
	if err := server.WaitIdle(10 * time.Second); err != nil {
		return err
	}

	// 4. Query the crowd-sensed data back.
	rows, err := server.Data.Retrieve(context.Background(), goflow.Query{AppID: soundcity.AppID, Provider: "gps"})
	if err != nil {
		return err
	}
	fmt.Printf("stored %d GPS observations:\n", len(rows))
	for _, r := range rows {
		fmt.Printf("  %.1f dB(A) at zone %v by %v\n", r.Value("spl"), r.Value("zone"), r.Value("userId"))
	}
	return nil
}
