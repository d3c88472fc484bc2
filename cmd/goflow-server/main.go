// Command goflow-server runs the GoFlow crowd-sensing middleware: the
// AMQP-style broker on a TCP port and the GoFlow REST API on an HTTP
// port, with the SoundCity application pre-registered. Every topology
// is this one server over a different storage engine (engine.go).
//
//	-mq, -http                  broker and REST (/v1/, /metrics, /sc/) addresses
//	-metrics-interval           period of the one-line metric log (0 = off)
//	-live-buffer, -live-send-budget, -live-max-sockets
//	                            live push: mailbox size, full-mailbox budget, sockets
//	-wal-dir DIR                write-ahead log + DIR/snapshot.gob (else memory-only)
//	-fsync-policy               grouped | always | none
//	-snapshot-interval          period between checkpoints (0 = on shutdown)
//	-shards N                   N > 1: a Router over N Locals at DIR/shard-i
//	-election n1=a,n2=b         a self-healing replication group (not with -shards)
//	-node-name, -lease-ttl      this -election member's name; the leader lease
//	-series                     chunked series view + per-zone rollups (DIR/series)
//	-retention, -rollup-interval  raw-chunk horizon; rollup bucket width
//	-predict                    per-zone forecasts over the rollups (needs -series)
//	-forecast-horizon, -forecast-interval  lead time; sweep period (0 = off)
//
// SIGINT and SIGTERM drain the server and write a final checkpoint.
// SIGHUP forces an election on an -election node and is ignored
// elsewhere.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/urbancivics/goflow/internal/goflow"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	if err := run(os.Args[1:], sig, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options are the parsed flags.
type options struct {
	mqAddr, httpAddr, walDir, fsyncPolicy, election, nodeName                      string
	metricsInterval, snapshotInterval, leaseTTL, retention, rollup, horizon, sweep time.Duration
	shards                                                                         int
	series, predict                                                                bool
	live                                                                           goflow.LiveConfig
}

// flagSet declares every flag the server has into o.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("goflow-server", flag.ContinueOnError)
	fs.StringVar(&o.mqAddr, "mq", ":7672", "broker TCP listen address")
	fs.StringVar(&o.httpAddr, "http", ":7680", "REST API listen address")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", 30*time.Second, "period between metric snapshot log lines (0 disables)")
	fs.IntVar(&o.live.Buffer, "live-buffer", 256, "per-socket live mailbox capacity: events past it are dropped, the client catches up with ?cursor=")
	fs.DurationVar(&o.live.SendBudget, "live-send-budget", 5*time.Second, "how long a live socket's mailbox may stay continuously full before the consumer is disconnected")
	fs.IntVar(&o.live.MaxSockets, "live-max-sockets", 1024, "concurrent live push subscriptions (SSE streams)")
	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory: mutations are durable before they are acknowledged (per -fsync-policy), and checkpoints publish <wal-dir>/snapshot.gob and truncate the log (memory-only store when empty)")
	fs.StringVar(&o.fsyncPolicy, "fsync-policy", "grouped", "WAL fsync policy: grouped (group commit), always (per record) or none (no fsync)")
	fs.DurationVar(&o.snapshotInterval, "snapshot-interval", 0, "period between checkpoints (0 = checkpoint only on shutdown)")
	fs.IntVar(&o.shards, "shards", 1, "number of storage shards under <wal-dir>/shard-N, routed by shard key (requires -wal-dir when > 1)")
	fs.StringVar(&o.election, "election", "", "self-healing replication group membership as name=addr,... (every member runs the same list); the group elects its own leader, fences deposed ones and fails over automatically (requires -wal-dir; exclusive with -shards)")
	fs.StringVar(&o.nodeName, "node-name", "", "this node's name in the -election member list (default: hostname)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 2*time.Second, "leader lease: a leader that cannot reach a follower majority for this long fences itself; followers elect a successor after twice this silence (requires -election)")
	fs.BoolVar(&o.series, "series", false, "maintain the time-partitioned series view: compressed chunks plus continuous per-zone rollups that answer noise analytics in microseconds (persisted under <wal-dir>/series when a WAL is configured, memory-only otherwise)")
	fs.DurationVar(&o.retention, "retention", 0, "series raw-data horizon: checkpoints drop chunks wholly older than this while rollups keep the full history (0 = keep raw data forever)")
	fs.DurationVar(&o.rollup, "rollup-interval", 5*time.Minute, "series rollup bucket width (requires -series)")
	fs.BoolVar(&o.predict, "predict", false, "run the forecasting subsystem: per-zone T+horizon exposure forecasts fitted over the series rollups, served on /v1/zones/{zone}/forecast, /v1/noisemap/forecast and /sc/quiet-route (requires -series)")
	fs.DurationVar(&o.horizon, "forecast-horizon", predict.DefaultHorizon, "forecast lead time (requires -predict)")
	fs.DurationVar(&o.sweep, "forecast-interval", time.Minute, "background forecast sweep period; each sweep refreshes the city forecast and announces zones predicted into the high health band on the broker (0 disables the background sweeps; requires -predict)")
	return fs
}

// parseFlags parses args and refuses the combinations no engine serves.
func parseFlags(args []string) (*options, error) {
	o := new(options)
	if err := flagSet(o).Parse(args); err != nil {
		return nil, err
	}
	switch {
	case o.predict && !o.series:
		return nil, errors.New("-predict needs the rollups the forecasts are fitted over: add -series")
	case o.election != "" && o.shards > 1:
		return nil, errors.New("-election is exclusive with -shards: an election group replicates one store")
	case (o.election != "" || o.shards > 1) && o.walDir == "":
		return nil, errors.New("-shards and -election need -wal-dir")
	}
	return o, nil
}

// run parses args, serves until stop delivers a shutdown signal, then
// drains. Operator log lines go to out.
func run(args []string, stop <-chan os.Signal, out io.Writer) (err error) {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}

	broker := mq.NewBroker()
	defer broker.Close()
	mqServer, err := mq.NewServer(broker, o.mqAddr)
	if err != nil {
		return fmt.Errorf("broker server: %w", err)
	}
	defer mqServer.Close()

	reg := obs.NewRegistry()
	eng, err := openEngine(o, reg, out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := eng.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("close engine: %w", cerr))
		}
	}()

	var predictCfg *predict.Config
	if o.predict {
		predictCfg = &predict.Config{Horizon: o.horizon}
	}
	server, err := goflow.NewServer(goflow.ServerConfig{Broker: broker, Data: eng.Engine, Live: o.live, Predict: predictCfg})
	if err != nil {
		return fmt.Errorf("goflow server: %w", err)
	}
	defer server.Shutdown()

	// The primary Local stands in for the fleet behind a Router: the
	// live cache follows its series view, /metrics reports its layers.
	local := eng.primary
	metrics := goflow.Instrument(reg, server, local.Store())
	if w := local.WAL(); w != nil {
		metrics.InstrumentWAL(w)
	}
	if sdb := local.Series(); sdb != nil {
		sdb.SetPointObserver(server.LiveCache.Observe)
		metrics.InstrumentSeries(sdb)
	}
	reporter := obs.NewReporter(reg, o.metricsInterval, nil)
	reporter.Start()
	defer reporter.Stop()

	app, err := soundcity.Register(server)
	if err != nil {
		return fmt.Errorf("register app: %w", err)
	}
	// An election node starts ingest when it wins (see the signal loop).
	if eng.node == nil {
		if err := server.StartIngest(); err != nil {
			return fmt.Errorf("start ingest: %w", err)
		}
	}
	// Forecasting is a rollup read, so it runs in every role.
	stopForecasts := startForecasts(server, broker, o.sweep, out)
	defer stopForecasts()

	// Checkpoints go through the engine (a Router fans out to every
	// shard), which serializes the job, the interval loop and shutdown.
	server.Jobs.Register("snapshot", func(context.Context, *goflow.DataManager, string) (any, error) {
		if o.walDir == "" {
			return nil, errors.New("nothing to checkpoint: the store is memory-only (configure -wal-dir)")
		}
		if err := eng.Checkpoint(); err != nil {
			return nil, err
		}
		return map[string]string{"checkpoint": o.walDir}, nil
	})
	stopCheckpoints := checkpointEvery(eng, o.snapshotInterval, out)
	defer stopCheckpoints()

	mux := http.NewServeMux()
	api := goflow.NewInstrumentedHTTPHandler(server, reg)
	mux.Handle("/v1/", api)
	mux.Handle("/metrics", api)
	mux.Handle("/metrics.json", api)
	if eng.node == nil {
		// The user API writes journeys straight into the primary store
		// (a Router pins unkeyed journeys to shard 0 too); on an election
		// node, whose role can flip, they would fork the replicated log.
		userAPI, err := soundcity.NewUserAPI(soundcity.APIConfig{Server: server, Store: local.Store(), Broker: broker})
		if err != nil {
			return fmt.Errorf("user API: %w", err)
		}
		mux.Handle("/sc/", http.StripPrefix("/sc", userAPI))
	}

	ln, err := net.Listen("tcp", o.httpAddr)
	if err != nil {
		return fmt.Errorf("http server: %w", err)
	}
	httpServer := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()
	fmt.Fprintf(out, "goflow-server: broker on %s, REST on %s, metrics on %s/metrics\n", mqServer.Addr(), ln.Addr(), ln.Addr())
	fmt.Fprintf(out, "goflow-server: app %q registered (secret %s)\n", app.ID, app.Secret)

	var failed error
loop:
	for {
		select {
		case s := <-stop:
			if s == syscall.SIGHUP {
				if eng.node != nil { // a proposal: the group still votes
					fmt.Fprintln(out, "goflow-server: SIGHUP: forcing an election")
					eng.node.ForceElection()
				}
				continue
			}
			fmt.Fprintf(out, "goflow-server: caught %v, shutting down\n", s)
			break loop
		case err := <-errCh:
			failed = fmt.Errorf("http server: %w", err)
			break loop
		case term := <-eng.leads:
			if err := server.StartIngest(); err != nil {
				failed = fmt.Errorf("start ingest after election: %w", err)
				break loop
			}
			fmt.Fprintf(out, "goflow-server: elected leader at term %d, ingest started\n", term)
		}
	}

	// Drain in dependency order: admission (503 + Retry-After, health
	// stays green), live streams (they would hold Shutdown open), HTTP,
	// broker sessions, then ingest — which first stores everything the
	// broker acknowledged into GF — and jobs, and the final checkpoint
	// only after every writer has stopped. The deferred Close ends the
	// WAL.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server.Guard.SetDraining(true)
	server.Live.Close()
	if err := httpServer.Shutdown(ctx); err != nil {
		return errors.Join(failed, err)
	}
	mqServer.Close()
	if err := server.ShutdownContext(ctx); err != nil {
		fmt.Fprintf(out, "goflow-server: ingest drain: %v\n", err)
	}
	stopForecasts()
	stopCheckpoints()
	if err := eng.Checkpoint(); err != nil {
		return errors.Join(failed, fmt.Errorf("final checkpoint: %w", err))
	}
	return failed
}

// checkpointEvery checkpoints data on a timer (never when every <= 0)
// and returns an idempotent stop that waits for the loop to exit.
func checkpointEvery(data storage.Engine, every time.Duration, out io.Writer) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := data.Checkpoint(); err != nil {
						fmt.Fprintf(out, "goflow-server: checkpoint: %v\n", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	return func() { cancel(); wg.Wait() }
}

// startForecasts launches the forecast scheduler (unless forecasting
// or its sweeps are off) and returns its idempotent stop. Each sweep
// announces zones forecast into the "high" band on the SoundCity
// exchange, so zone subscribers get pushed warnings.
func startForecasts(server *goflow.Server, broker *mq.Broker, interval time.Duration, out io.Writer) func() {
	if server.Predict == nil || interval <= 0 {
		return func() {}
	}
	sched := predict.NewScheduler(server.Predict, interval, func(fcs map[string]predict.Forecast) {
		for zone, fc := range fcs {
			if soundcity.BandOf(fc.ValueDB) < soundcity.BandHigh {
				continue
			}
			body, err := json.Marshal(fc)
			if err != nil {
				continue
			}
			key := soundcity.AppID + ".server." + soundcity.DatatypeForecast + "." + zone
			_, _ = broker.PublishAt(soundcity.AppID, key, nil, body, fc.GeneratedAt)
		}
	})
	sched.Start()
	fmt.Fprintf(out, "goflow-server: forecasting every %v (horizon %v)\n", interval, server.Predict.Horizon())
	return sched.Stop
}
