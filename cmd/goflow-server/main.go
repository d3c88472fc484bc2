// Command goflow-server runs the GoFlow crowd-sensing middleware: the
// AMQP-style broker on a TCP port and the GoFlow REST API on an HTTP
// port, with the SoundCity application pre-registered.
//
// Usage:
//
//	goflow-server [-mq :7672] [-http :7680]
//
// Cluster mode (see cluster.go): -shards partitions collections across
// N WAL-backed shards, -repl-listen ships each shard's log to
// followers, -follow runs a read replica that SIGHUP promotes.
//
// Durability: -data alone snapshots the store on shutdown (and every
// -snapshot-interval, when set). Adding -wal-dir turns on the
// write-ahead log: every accepted mutation is durable before it is
// acknowledged (per -fsync-policy), a crash recovers by replaying the
// log tail over the latest snapshot, and each snapshot doubles as a
// checkpoint that truncates the log.
//
// Analytics: -series maintains the time-partitioned series view —
// compressed observation chunks plus continuous per-zone rollups —
// so the noisemap endpoints answer in microseconds instead of
// scanning documents. -rollup-interval sets the rollup bucket width
// and -retention lets checkpoints age raw chunks out while the
// rollups keep the full history.
//
// Forecasting: -predict fits per-zone exposure forecasts over the
// series rollups (requires -series) and serves them on
// /v1/zones/{zone}/forecast, /v1/noisemap/forecast and
// /sc/quiet-route. -forecast-horizon sets the lead time and
// -forecast-interval the background sweep cadence; each sweep
// announces zones forecast into the "high" health band on the broker.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
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
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/soundcity"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mqAddr := flag.String("mq", ":7672", "broker TCP listen address")
	httpAddr := flag.String("http", ":7680", "REST API listen address")
	dataPath := flag.String("data", "", "snapshot file: loaded on start if present, saved on checkpoints and shutdown")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: mutations are durable before they are acknowledged (defaults -data to <wal-dir>/snapshot.gob)")
	fsyncPolicy := flag.String("fsync-policy", "grouped", "WAL fsync policy: grouped (group commit), always (per record) or none (no fsync)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "period between snapshot checkpoints (0 = snapshot only on shutdown); with a WAL, each checkpoint also truncates the log")
	metricsInterval := flag.Duration("metrics-interval", 30*time.Second, "period between metric snapshot log lines (0 disables)")
	shards := flag.Int("shards", 1, "number of storage shards under <wal-dir>/shard-N (cluster mode when > 1)")
	replListen := flag.String("repl-listen", "", "comma-separated replication listener addresses, one per shard (enables log shipping)")
	syncFollowers := flag.Int("sync-followers", 0, "followers that must acknowledge a write before it is acknowledged to the client (0 = async replication)")
	follow := flag.String("follow", "", "run as a follower replicating from this leader replication address (read-only until SIGHUP promotes)")
	followerName := flag.String("follower-name", "", "stable follower identity for ack tracking (default: hostname)")
	election := flag.String("election", "", "self-healing replication group membership as name=addr,... (every member runs the same list); the group elects its own leader, fences deposed ones and fails over automatically — exclusive with -shards/-repl-listen/-follow")
	nodeName := flag.String("node-name", "", "this node's name in the -election member list (default: hostname)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "leader lease: a leader that cannot reach a follower majority for this long fences itself; followers elect a successor after twice this silence (requires -election)")
	seriesOn := flag.Bool("series", false, "maintain the time-partitioned series view: compressed chunks plus continuous per-zone rollups that answer noise analytics in microseconds (persisted under <wal-dir>/series when a WAL is configured, memory-only otherwise)")
	retention := flag.Duration("retention", 0, "series raw-data horizon: checkpoints drop chunks wholly older than this while rollups keep the full history (0 = keep raw data forever)")
	rollupInterval := flag.Duration("rollup-interval", 5*time.Minute, "series rollup bucket width (requires -series)")
	predictOn := flag.Bool("predict", false, "run the forecasting subsystem: per-zone T+horizon exposure forecasts fitted over the series rollups, served on /v1/zones/{zone}/forecast, /v1/noisemap/forecast and /sc/quiet-route (requires -series)")
	forecastHorizon := flag.Duration("forecast-horizon", predict.DefaultHorizon, "forecast lead time (requires -predict)")
	forecastInterval := flag.Duration("forecast-interval", time.Minute, "background forecast sweep period; each sweep refreshes the city forecast and announces zones predicted into the high health band on the broker (0 disables the background sweeps; requires -predict)")
	liveBuffer := flag.Int("live-buffer", 256, "per-socket live mailbox capacity: events past it are dropped, the client catches up with ?cursor=")
	liveSendBudget := flag.Duration("live-send-budget", 5*time.Second, "how long a live socket's mailbox may stay continuously full before the consumer is disconnected")
	liveMaxSockets := flag.Int("live-max-sockets", 1024, "concurrent live push subscriptions (WebSocket + SSE)")
	flag.Parse()

	liveCfg := goflow.LiveConfig{
		Buffer:     *liveBuffer,
		SendBudget: *liveSendBudget,
		MaxSockets: *liveMaxSockets,
	}

	var seriesOpts *storage.SeriesOptions
	if *seriesOn {
		seriesOpts = &storage.SeriesOptions{Options: series.Options{
			Retention:    *retention,
			RollupBucket: *rollupInterval,
		}}
	}

	var predictCfg *predict.Config
	if *predictOn {
		if seriesOpts == nil {
			return errors.New("-predict needs the rollups the forecasts are fitted over: add -series")
		}
		predictCfg = &predict.Config{Horizon: *forecastHorizon}
	}

	if cfg := (clusterConfig{
		mqAddr: *mqAddr, httpAddr: *httpAddr,
		walDir: *walDir, fsyncPolicy: *fsyncPolicy,
		shards: *shards, replListen: *replListen, syncFollowers: *syncFollowers,
		follow: *follow, followerName: *followerName,
		election: *election, nodeName: *nodeName, leaseTTL: *leaseTTL,
		snapshotInterval: *snapshotInterval, metricsInterval: *metricsInterval,
		series: seriesOpts, live: liveCfg,
		predict: predictCfg, forecastInterval: *forecastInterval,
	}); cfg.clusterMode() {
		return runCluster(cfg)
	}

	broker := mq.NewBroker()
	defer broker.Close()

	mqServer, err := mq.NewServer(broker, *mqAddr)
	if err != nil {
		return fmt.Errorf("broker server: %w", err)
	}
	defer mqServer.Close()

	policy, err := wal.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}

	// The Local engine owns the recovery order: snapshot first, series
	// view next (so replay can re-feed its tail), the WAL tail on top,
	// and only then attach the log so new mutations are journaled.
	local, err := storage.OpenLocal(storage.LocalOptions{
		SnapshotPath: *dataPath,
		WALDir:       *walDir,
		Policy:       policy,
		Series:       seriesOpts,
	})
	if err != nil {
		return err
	}
	store := local.Store()
	dataFile := local.SnapshotPath()
	if dataFile != "" {
		fmt.Printf("goflow-server: snapshots at %s (%v)\n", dataFile, store.Collections())
	}
	if local.WAL() != nil {
		records, d := local.ReplayInfo()
		fmt.Printf("goflow-server: wal %s replayed %d records (%d legacy gob) in %v (lsn %d, policy %s)\n",
			*walDir, records, store.FormatStats().DecodedGob, d.Round(time.Millisecond), local.WAL().LastLSN(), policy)
	}
	if sdb := local.Series(); sdb != nil {
		st := sdb.Stats()
		fmt.Printf("goflow-server: series view up (%d points, %d zones, %d rollup buckets)\n",
			st.Points, st.Zones, st.RollupBuckets)
	}

	server, err := goflow.NewServer(goflow.ServerConfig{
		Broker:  broker,
		Data:    local,
		Live:    liveCfg,
		Predict: predictCfg,
	})
	if err != nil {
		return fmt.Errorf("goflow server: %w", err)
	}
	defer server.Shutdown()

	// Feed the latest-per-zone live cache from the series view: every
	// accepted ingest batch updates it on the way into the rollups.
	if sdb := local.Series(); sdb != nil {
		sdb.SetPointObserver(server.LiveCache.Observe)
	}

	// Observability: every layer feeds one registry, exposed over
	// /metrics and summarized periodically on the log.
	reg := obs.NewRegistry()
	metrics := goflow.Instrument(reg, server, store)
	if local.WAL() != nil {
		metrics.InstrumentWAL(local.WAL())
	}
	if local.Series() != nil {
		metrics.InstrumentSeries(local.Series())
	}
	reporter := obs.NewReporter(reg, *metricsInterval, nil)
	reporter.Start()
	defer reporter.Stop()

	// checkpoint publishes a snapshot, persists the series view and,
	// with a WAL, truncates the segments the snapshot covers; the
	// engine serializes callers, so the interval loop, the job and
	// shutdown never interleave. Retention ages raw series chunks out
	// on the same cadence.
	checkpoint := local.Checkpoint
	wantCheckpoints := dataFile != "" || local.Series() != nil

	app, err := soundcity.Register(server)
	if err != nil {
		return fmt.Errorf("register app: %w", err)
	}
	if err := server.StartIngest(); err != nil {
		return fmt.Errorf("start ingest: %w", err)
	}
	stopForecasts := startForecasts(server, broker, *forecastInterval)

	// Operators can force a checkpoint through the background-job API;
	// the interval loop below runs the same script on a timer.
	server.Jobs.Register("snapshot", func(_ context.Context, _ *goflow.DataManager, _ string) (any, error) {
		if !wantCheckpoints {
			return nil, errors.New("nothing to checkpoint (configure -data, -wal-dir or -series)")
		}
		if err := checkpoint(); err != nil {
			return nil, err
		}
		return map[string]string{"snapshot": dataFile}, nil
	})
	stopSnapshots := make(chan struct{})
	var snapshotWG sync.WaitGroup
	if *snapshotInterval > 0 && wantCheckpoints {
		snapshotWG.Add(1)
		go func() {
			defer snapshotWG.Done()
			ticker := time.NewTicker(*snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := checkpoint(); err != nil {
						fmt.Printf("goflow-server: checkpoint: %v\n", err)
					}
				case <-stopSnapshots:
					return
				}
			}
		}()
	}

	// Mount the middleware API at the root and the SoundCity
	// user-facing API (own data, exposure, feedback) under /sc/.
	userAPI, err := soundcity.NewUserAPI(soundcity.APIConfig{
		Server: server,
		Store:  store,
		Broker: broker,
	})
	if err != nil {
		return fmt.Errorf("user API: %w", err)
	}
	mux := http.NewServeMux()
	api := goflow.NewInstrumentedHTTPHandler(server, reg)
	mux.Handle("/v1/", api)
	mux.Handle("/metrics", api)
	mux.Handle("/metrics.json", api)
	mux.Handle("/sc/", http.StripPrefix("/sc", userAPI))

	httpServer := &http.Server{
		Addr:              *httpAddr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()

	fmt.Printf("goflow-server: broker on %s, REST on %s, metrics on %s/metrics\n", mqServer.Addr(), *httpAddr, *httpAddr)
	fmt.Printf("goflow-server: app %q registered (secret %s)\n", app.ID, app.Secret)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("goflow-server: caught %v, shutting down\n", s)
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			return fmt.Errorf("http server: %w", err)
		}
	}
	// Graceful drain, in dependency order: flip the admission layer to
	// draining first (new API requests get 503 + Retry-After while the
	// health probe stays green for the load balancer), then drain
	// in-flight HTTP, then the ingest loop and jobs, then the broker
	// sessions, and only then flush the final checkpoint — after every
	// writer has stopped — before closing the WAL it truncated.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server.Guard.SetDraining(true)
	// Live streams would hold httpServer.Shutdown open until its
	// timeout (an SSE handler is an active request); end them now so
	// clients reconnect elsewhere and catch up over the cursor API.
	server.Live.Close()
	if err := httpServer.Shutdown(ctx); err != nil {
		return err
	}
	if err := server.ShutdownContext(ctx); err != nil {
		fmt.Printf("goflow-server: ingest drain: %v\n", err)
	}
	stopForecasts()
	mqServer.Close()
	close(stopSnapshots)
	snapshotWG.Wait()
	if wantCheckpoints {
		if err := checkpoint(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		if dataFile != "" {
			fmt.Printf("goflow-server: snapshot saved to %s\n", dataFile)
		}
	}
	if err := local.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	return nil
}

// startForecasts launches the background forecast scheduler and
// returns its stop function (a no-op when forecasting is off or the
// sweep interval is zero). Each sweep announces zones predicted into
// the "high" health band on the SoundCity exchange under the
// server-originated forecast key, so zone subscribers — the PR 8 live
// feeds included — get pushed warnings about where it is about to get
// loud.
func startForecasts(server *goflow.Server, broker *mq.Broker, interval time.Duration) func() {
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
	fmt.Printf("goflow-server: forecasting every %v (horizon %v)\n", interval, server.Predict.Horizon())
	return sched.Stop
}
