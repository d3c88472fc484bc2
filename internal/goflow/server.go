package goflow

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/predict"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/simclock"
	"github.com/urbancivics/goflow/internal/storage"
)

// Server is the GoFlow crowd-sensing server: it wires the account
// manager, channel management over the broker, the data manager over
// the document store, analytics and background jobs, and runs the
// ingest loop that drains the GoFlow queue.
type Server struct {
	Accounts  *Accounts
	Channels  *Channels
	Data      *DataManager
	Analytics *Analytics
	Jobs      *Jobs
	// Guard is the REST admission chain; every API route except the
	// health probe passes through it.
	Guard *Admission
	// Live owns push subscriptions (SSE fan-out off the broker trie);
	// closed first at drain time.
	Live *LiveHub
	// LiveCache is the latest-per-zone view behind GET /v1/live/latest.
	// It is fed by the series point observer when a series DB is
	// attached (see cmd/goflow-server); without one it stays empty.
	LiveCache *LatestCache
	// Predict serves per-zone exposure forecasts (nil unless the
	// server was built with ServerConfig.Predict over an engine whose
	// series view supports bucket reads).
	Predict *predict.Forecaster
	// Reroute proposes quiet-path alternatives over the forecasts
	// (nil exactly when Predict is).
	Reroute *predict.Rerouter

	broker *mq.Broker
	clock  simclock.Clock

	mu       sync.Mutex
	consumer *mq.Consumer
	done     chan struct{}
}

// maxConcurrentJobs bounds background-job parallelism.
const maxConcurrentJobs = 2

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Broker is the messaging substrate (required).
	Broker *mq.Broker
	// Data is the storage engine (required): a Local — storage.NewLocal
	// over a bare store, or a WAL-backed one from storage.OpenLocal —,
	// a cluster Router or an election node. The server runs against it
	// unchanged; sharding and replication are invisible above the
	// Engine seam.
	Data storage.Engine
	// Clock stamps ReceivedAt; nil defaults to the system clock.
	Clock simclock.Clock
	// admission lets this package's tests move the REST overload
	// guards off their constants.
	admission AdmissionConfig
	// Live parameterizes push subscriptions; the zero value enables
	// them with defaults.
	Live LiveConfig
	// Predict, when non-nil, enables the forecasting subsystem with
	// this model configuration (zero-value Config = defaults). It
	// requires an engine exposing bucket-granular rollups
	// (storage.RollupReader) — i.e. a series view attached; otherwise
	// NewServer fails rather than silently serving no forecasts.
	Predict *predict.Config
}

// NewServer builds a server and provisions the GoFlow broker
// topology. Call StartIngest to begin draining the queue and Shutdown
// to stop.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Broker == nil {
		return nil, errors.New("goflow: server needs a broker")
	}
	if cfg.Data == nil {
		return nil, errors.New("goflow: server needs a storage engine")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real()
	}
	accounts, err := NewAccounts()
	if err != nil {
		return nil, err
	}
	channels, err := NewChannels(cfg.Broker)
	if err != nil {
		return nil, err
	}
	zones := geo.ParisZones()
	dm := NewDataManagerEngine(cfg.Data, accounts, zones)
	s := &Server{
		Accounts:  accounts,
		Channels:  channels,
		Data:      dm,
		Analytics: NewAnalytics(),
		Jobs:      NewJobs(dm, maxConcurrentJobs),
		Guard:     NewAdmission(cfg.admission),
		Live:      NewLiveHub(cfg.Broker, cfg.Live),
		LiveCache: NewLatestCache(),
		broker:    cfg.Broker,
		clock:     cfg.Clock,
	}
	if cfg.Predict != nil {
		src, ok := cfg.Data.(predict.Source)
		if !ok {
			return nil, errors.New("goflow: forecasting needs a storage engine with a series view (bucket rollup reads)")
		}
		s.Predict = predict.New(src, *cfg.Predict, cfg.Clock)
		s.Reroute = predict.NewRerouter(zones, s.Predict)
	}
	return s, nil
}

// RegisterApp registers an application and provisions its exchange.
func (s *Server) RegisterApp(id, name string, policy DataPolicy) (*App, error) {
	app, err := s.Accounts.RegisterApp(id, name, policy)
	if err != nil {
		return nil, err
	}
	if err := s.Channels.ProvisionApp(id); err != nil {
		return nil, err
	}
	return app, nil
}

// Login registers a client of an app and provisions its private
// exchange and queue (Figure 3); the returned Client carries the
// endpoint names.
func (s *Server) Login(appID string) (*Client, error) {
	c, err := s.Accounts.RegisterClient(appID, RoleClient)
	if err != nil {
		return nil, err
	}
	ex, q, err := s.Channels.ProvisionClient(appID, c.ID)
	if err != nil {
		return nil, err
	}
	if err := s.Accounts.setClientChannels(c.ID, ex, q); err != nil {
		return nil, err
	}
	c.Exchange = ex
	c.Queue = q
	return c, nil
}

// Logout deprovisions a client's endpoints.
func (s *Server) Logout(clientID string) error {
	return s.Channels.DeprovisionClient(clientID)
}

// StartIngest launches the consumer loop on the GoFlow queue. It is
// idempotent.
func (s *Server) StartIngest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.consumer != nil {
		return nil
	}
	consumer, err := s.broker.Consume(GoFlowQueue, 256)
	if err != nil {
		return fmt.Errorf("ingest consumer: %w", err)
	}
	s.consumer = consumer
	s.done = make(chan struct{})
	go s.ingestLoop(consumer, s.done)
	return nil
}

// ingestLoop drains deliveries until the consumer channel closes.
func (s *Server) ingestLoop(consumer *mq.Consumer, done chan struct{}) {
	defer close(done)
	for d := range consumer.C() {
		if err := s.ingestDelivery(d.Message); err != nil {
			s.Analytics.RecordRejection()
			log.Printf("goflow ingest: %v", err)
			if nackErr := consumer.Nack(d.Tag, false); nackErr != nil {
				log.Printf("goflow ingest nack: %v", nackErr)
			}
			continue
		}
		if err := consumer.Ack(d.Tag); err != nil {
			log.Printf("goflow ingest ack: %v", err)
		}
	}
}

// ingestDelivery decodes and stores one broker message. The routing
// key carries "<app>.<client>.<datatype>.<zone>".
func (s *Server) ingestDelivery(m mq.Message) error {
	parts := strings.Split(m.RoutingKey, ".")
	if len(parts) < 3 {
		return fmt.Errorf("malformed routing key %q", m.RoutingKey)
	}
	appID, clientID, datatype := parts[0], parts[1], parts[2]
	if datatype != "obs" {
		// Feedback / journey notifications are fan-out only; the
		// server stores observations.
		return nil
	}
	obs, err := sensing.DecodeObservation(m.Body)
	if err != nil {
		return err
	}
	receivedAt := s.clock.Now()
	if !m.PublishedAt.IsZero() {
		receivedAt = m.PublishedAt
	}
	anonID := s.Accounts.Anonymize(clientID)
	if _, err := s.Data.ingestAnon(appID, anonID, obs, receivedAt); err != nil {
		return err
	}
	s.Analytics.RecordIngest(appID, anonID, obs.DeviceModel, obs.Localized(), receivedAt)
	return nil
}

// BulkIngest stores observations directly through the ingest pipeline
// (validation, anonymization, analytics) without broker transport —
// the fast path used by the large-scale simulations. The whole run is
// stored through one batch insert and one analytics update; on error
// the valid prefix is stored and counted, exactly as the previous
// per-observation loop behaved.
func (s *Server) BulkIngest(appID, clientID string, observations []*sensing.Observation) (int, error) {
	if len(observations) == 0 {
		return 0, nil
	}
	receivedAt := make([]time.Time, len(observations))
	for i, o := range observations {
		if o == nil {
			continue // ingestBatch reports the error at this index
		}
		receivedAt[i] = o.ReceivedAt
		if receivedAt[i].IsZero() {
			receivedAt[i] = o.SensedAt
		}
	}
	anonID := s.Accounts.Anonymize(clientID)
	ids, err := s.Data.ingestBatch(appID, anonID, observations, receivedAt)
	stored := len(ids)
	s.Analytics.RecordIngestBatch(appID, anonID, observations[:stored], receivedAt[:stored])
	if err != nil {
		return stored, fmt.Errorf("bulk ingest #%d: %w", stored, err)
	}
	return stored, nil
}

// WaitIdle blocks until the GoFlow queue is fully drained and acked
// (test/simulation synchronization helper).
func (s *Server) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.broker.QueueStats(GoFlowQueue)
		if err != nil {
			return err
		}
		if st.Ready == 0 && st.Unacked == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goflow: queue not drained (ready=%d unacked=%d)", st.Ready, st.Unacked)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Shutdown stops the ingest loop and background jobs, waiting as long
// as it takes. Use ShutdownContext to bound the drain.
func (s *Server) Shutdown() {
	_ = s.ShutdownContext(context.Background())
}

// ShutdownContext drains the server gracefully: the admission layer
// flips to draining (new API requests get 503 + Retry-After while the
// health probe stays green), the ingest loop stores everything the
// GoFlow queue holds, its consumer is cancelled and the loop waited
// for, and background jobs are stopped. The queue is in memory only
// and the broker has already acknowledged its messages to their
// publishers, so the caller stops new publishes first (closes the
// broker's listener) and the drain stores what is left. A ctx that
// ends before the queue or the loop drains returns ctx.Err() with the
// consumer cancelled; the loop finishes in the background, and what
// the queue still holds is lost when the process exits.
func (s *Server) ShutdownContext(ctx context.Context) error {
	s.Guard.SetDraining(true)
	// End live streams first: each client gets an end event (reason
	// "draining") and reconnects elsewhere, catching up over the cursor
	// API — idle dashboards must not hold the drain open.
	s.Live.Close()
	s.mu.Lock()
	consumer := s.consumer
	done := s.done
	s.consumer = nil
	s.done = nil
	s.mu.Unlock()
	if consumer != nil {
		err := s.drainIngest(ctx)
		consumer.Cancel()
		if err != nil {
			return err
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.Jobs.Shutdown()
	return nil
}

// drainIngest waits until the GoFlow queue holds nothing the ingest
// loop has not stored: no message ready and none delivered but not
// yet acknowledged.
func (s *Server) drainIngest(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		st, err := s.broker.QueueStatsFast(GoFlowQueue)
		if err != nil || st.Ready+st.Unacked == 0 {
			return nil // err: the broker is closed and its queues with it
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
