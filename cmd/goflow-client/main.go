// Command goflow-client is a command-line GoFlow mobile client for a
// running goflow-server: it logs in over the REST API, publishes
// observations through the TCP broker, subscribes to its private
// queue, and queries stored data.
//
// Usage:
//
//	goflow-client [-http http://localhost:7680] [-mq localhost:7672] <command>
//
// Commands:
//
//	login                          register a client, print credentials
//	publish -client <id> -exchange <E.x> [-spl 61] [-lat .. -lon ..]
//	subscribe -queue <Q.x> [-n 1]  wait for deliveries on the queue
//	query [-model ..] [-provider ..] [-limit 10]
//	export [-format ndjson|csv]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goflow-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("goflow-client", flag.ContinueOnError)
	httpAddr := global.String("http", "http://localhost:7680", "REST API base URL")
	mqAddr := global.String("mq", "localhost:7672", "broker TCP address")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (login | publish | subscribe | query | export)")
	}
	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "login":
		return cmdLogin(*httpAddr)
	case "publish":
		return cmdPublish(*mqAddr, cmdArgs)
	case "subscribe":
		return cmdSubscribe(*mqAddr, cmdArgs)
	case "query":
		return cmdQuery(*httpAddr, cmdArgs)
	case "export":
		return cmdExport(*httpAddr, cmdArgs)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdLogin(httpAddr string) error {
	resp, err := http.Post(httpAddr+"/v1/apps/"+sensing.SoundCityAppID+"/login", "application/json", strings.NewReader("{}"))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("login failed (%d): %s", resp.StatusCode, body)
	}
	var c struct {
		ID       string `json:"id"`
		Exchange string `json:"exchange"`
		Queue    string `json:"queue"`
	}
	if err := json.Unmarshal(body, &c); err != nil {
		return err
	}
	fmt.Printf("client id: %s\nexchange:  %s\nqueue:     %s\n", c.ID, c.Exchange, c.Queue)
	return nil
}

func cmdPublish(mqAddr string, args []string) error {
	fs := flag.NewFlagSet("publish", flag.ContinueOnError)
	clientID := fs.String("client", "", "client id from login (required)")
	exchange := fs.String("exchange", "", "client exchange from login (required)")
	spl := fs.Float64("spl", 61.5, "measured level dB(A)")
	lat := fs.Float64("lat", 0, "latitude (0 = unlocalized)")
	lon := fs.Float64("lon", 0, "longitude")
	accuracy := fs.Float64("accuracy", 25, "location accuracy meters")
	model := fs.String("model", "LGE NEXUS 5", "device model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clientID == "" || *exchange == "" {
		return fmt.Errorf("publish needs -client and -exchange (run login first)")
	}
	conn, err := mq.DialResilient(mqAddr, mq.ReconnectConfig{})
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()

	obs := &sensing.Observation{
		UserID:             *clientID,
		DeviceModel:        *model,
		Mode:               sensing.Manual,
		SPL:                *spl,
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           time.Now(),
	}
	if *lat != 0 || *lon != 0 {
		obs.Loc = &sensing.Location{
			Point:     geo.Point{Lat: *lat, Lon: *lon},
			AccuracyM: *accuracy,
			Provider:  sensing.ProviderGPS,
		}
	}
	transport := client.NewMQTransport(conn, *exchange, sensing.SoundCityAppID, *clientID)
	uploader, err := client.NewUploader(client.Config{
		ClientID:   *clientID,
		AppID:      sensing.SoundCityAppID,
		Version:    "1.3",
		BufferSize: 1,
	}, transport)
	if err != nil {
		return err
	}
	if err := uploader.Record(obs); err != nil {
		return err
	}
	sent, err := uploader.Flush(time.Now(), true)
	if err != nil {
		return err
	}
	fmt.Printf("published %d observation(s) (%.1f dB(A))\n", sent, *spl)
	return nil
}

func cmdSubscribe(mqAddr string, args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ContinueOnError)
	queue := fs.String("queue", "", "client queue from login (required)")
	n := fs.Int("n", 1, "number of deliveries to wait for")
	timeout := fs.Duration("timeout", 30*time.Second, "wait deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queue == "" {
		return fmt.Errorf("subscribe needs -queue")
	}
	conn, err := mq.DialResilient(mqAddr, mq.ReconnectConfig{})
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	consumer, err := conn.Consume(*queue, 16)
	if err != nil {
		return err
	}
	defer func() { _ = consumer.Cancel() }()
	deadline := time.After(*timeout)
	for i := 0; i < *n; i++ {
		select {
		case d, open := <-consumer.C():
			if !open {
				return fmt.Errorf("subscription closed after %d deliveries", i)
			}
			fmt.Printf("[%s] %s: %s\n", d.PublishedAt.Format(time.RFC3339), d.RoutingKey, d.Body)
			if err := consumer.Ack(d.Tag); err != nil {
				return err
			}
		case <-deadline:
			return fmt.Errorf("timed out after %d deliveries", i)
		}
	}
	return nil
}

func cmdQuery(httpAddr string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	model := fs.String("model", "", "filter by device model")
	provider := fs.String("provider", "", "filter by location provider")
	limit := fs.Int("limit", 10, "max results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := url.Values{}
	if *model != "" {
		params.Set("model", *model)
	}
	if *provider != "" {
		params.Set("provider", *provider)
	}
	params.Set("limit", fmt.Sprint(*limit))
	resp, err := http.Get(httpAddr + "/v1/apps/" + sensing.SoundCityAppID + "/observations?" + params.Encode())
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return fmt.Errorf("query failed (%d): %s", resp.StatusCode, body)
	}
	var out struct {
		Count        int              `json:"count"`
		Observations []map[string]any `json:"observations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	fmt.Printf("%d observation(s):\n", out.Count)
	for _, d := range out.Observations {
		fmt.Printf("  %v dB(A)  model=%v provider=%v at=%v\n", d["spl"], d["deviceModel"], d["provider"], d["sensedAt"])
	}
	return nil
}

func cmdExport(httpAddr string, args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	format := fs.String("format", "ndjson", "ndjson or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(httpAddr + "/v1/apps/" + sensing.SoundCityAppID + "/observations/export?format=" + url.QueryEscape(*format))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return fmt.Errorf("export failed (%d): %s", resp.StatusCode, body)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
