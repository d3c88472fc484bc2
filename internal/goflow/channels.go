package goflow

import (
	"cmp"
	"fmt"
	"maps"
	"strings"
	"sync"

	"github.com/urbancivics/goflow/internal/mq"
)

// Channel management (Figure 3 of the paper): GoFlow provisions, on
// behalf of applications and mobile clients, the broker exchanges,
// queues and bindings that route crowd-sensed messages.
//
// Topology per app:
//
//	E.<client> --"<app>.<clientId>.#"--> <app> --#--> GFX --#--> GF
//
// Each client publishes on its private exchange E.<client>; the
// binding into the app exchange filters on the client id (shared
// secret), so a client cannot inject messages under another identity.
// The app exchange forwards everything to the GoFlow exchange (GFX)
// and queue (GF) for storage. Subscriptions create location exchanges
// (loc.<zone>) fed from the app exchange, with client queues bound by
// datatype + zone patterns.

// Broker endpoints provisioned by channel management.
const (
	// GoFlowExchange receives every crowd-sensed message.
	GoFlowExchange = "GFX"
	// GoFlowQueue is consumed by the server's ingest loop.
	GoFlowQueue = "GF"
)

// ClientExchange names a client's private exchange.
func ClientExchange(clientID string) string { return "E." + clientID }

// ClientQueue names a client's private notification queue.
func ClientQueue(clientID string) string { return "Q." + clientID }

// LocationExchange names a zone's exchange.
func LocationExchange(zone string) string { return "loc." + zone }

// Channels provisions broker topology. It is safe for concurrent use.
type Channels struct {
	broker *mq.Broker

	mu        sync.Mutex
	locations map[string]bool // provisioned location exchanges
	// retiredExchanges and retiredQueues hold the final counts of the
	// client endpoints DeprovisionClient deleted, by name class, so
	// the per-class sums /metrics reads never go backwards.
	retiredExchanges map[string]mq.ExchangeStats
	retiredQueues    map[string]mq.QueueStats
}

// NewChannels builds a channel manager bound to the broker and
// provisions the GoFlow exchange and queue.
func NewChannels(broker *mq.Broker) (*Channels, error) {
	c := &Channels{
		broker:           broker,
		locations:        make(map[string]bool),
		retiredExchanges: make(map[string]mq.ExchangeStats),
		retiredQueues:    make(map[string]mq.QueueStats),
	}
	if err := broker.DeclareExchange(GoFlowExchange, mq.Topic); err != nil {
		return nil, fmt.Errorf("goflow exchange: %w", err)
	}
	if err := broker.DeclareQueue(GoFlowQueue, mq.QueueOptions{}); err != nil {
		return nil, fmt.Errorf("goflow queue: %w", err)
	}
	if err := broker.BindQueue(GoFlowQueue, GoFlowExchange, "#"); err != nil {
		return nil, fmt.Errorf("goflow binding: %w", err)
	}
	return c, nil
}

// ProvisionApp creates the app exchange and forwards it into the
// GoFlow exchange.
func (c *Channels) ProvisionApp(appID string) error {
	if err := c.broker.DeclareExchange(appID, mq.Topic); err != nil {
		return fmt.Errorf("app exchange %q: %w", appID, err)
	}
	if err := c.broker.BindExchange(GoFlowExchange, appID, "#"); err != nil {
		return fmt.Errorf("app forwarding %q: %w", appID, err)
	}
	return nil
}

// ProvisionClient creates the client's private exchange and queue and
// binds the exchange into the app exchange with the client id as the
// routing filter. It returns the exchange and queue names for the
// client to connect to.
func (c *Channels) ProvisionClient(appID, clientID string) (exchangeName, queueName string, err error) {
	exchangeName = ClientExchange(clientID)
	queueName = ClientQueue(clientID)
	if err = c.broker.DeclareExchange(exchangeName, mq.Topic); err != nil {
		return "", "", fmt.Errorf("client exchange: %w", err)
	}
	if err = c.broker.DeclareQueue(queueName, mq.QueueOptions{MaxLen: 10000}); err != nil {
		return "", "", fmt.Errorf("client queue: %w", err)
	}
	// The client-id filter: only keys carrying this client's id pass
	// into the application exchange.
	pattern := appID + "." + clientID + ".#"
	if err = c.broker.BindExchange(appID, exchangeName, pattern); err != nil {
		return "", "", fmt.Errorf("client binding: %w", err)
	}
	return exchangeName, queueName, nil
}

// DeprovisionClient tears the client's endpoints down (logout /
// account removal), keeping what they counted.
func (c *Channels) DeprovisionClient(clientID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ex, exErr := c.broker.DeleteExchange(ClientExchange(clientID))
	if exErr == nil {
		addExchangeCounts(c.retiredExchanges, ex)
	}
	q, qErr := c.broker.DeleteQueue(ClientQueue(clientID))
	if qErr == nil {
		addQueueCounts(c.retiredQueues, q)
	}
	return cmp.Or(exErr, qErr)
}

// brokerCounts snapshots the broker with its exchange and queue
// counters summed by name class, the retired client endpoints' final
// counts included. queues[class].Ready sums the ready depth of the
// class's live queues; queueCount counts them.
func (c *Channels) brokerCounts() (st mq.BrokerStats, exchanges map[string]mq.ExchangeStats, queues map[string]mq.QueueStats, queueCount map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st = c.broker.Stats()
	exchanges = maps.Clone(c.retiredExchanges)
	for _, ex := range st.Exchanges {
		addExchangeCounts(exchanges, ex)
	}
	queues = maps.Clone(c.retiredQueues)
	queueCount = make(map[string]int)
	for _, q := range st.Queues {
		addQueueCounts(queues, q)
		queueCount[queueClass(q.Name)]++
	}
	return st, exchanges, queues, queueCount
}

// addExchangeCounts adds one exchange's counters to its class's sum.
func addExchangeCounts(sums map[string]mq.ExchangeStats, ex mq.ExchangeStats) {
	cls := exchangeClass(ex.Name)
	s := sums[cls]
	s.Published += ex.Published
	s.Unroutable += ex.Unroutable
	sums[cls] = s
}

// addQueueCounts adds one queue's counters and ready depth to its
// class's sum.
func addQueueCounts(sums map[string]mq.QueueStats, q mq.QueueStats) {
	cls := queueClass(q.Name)
	s := sums[cls]
	s.Ready += q.Ready
	s.Published += q.Published
	s.Delivered += q.Delivered
	s.Acked += q.Acked
	s.Nacked += q.Nacked
	s.Dropped += q.Dropped
	s.Overflowed += q.Overflowed
	s.FlowPauses += q.FlowPauses
	s.FlowResumes += q.FlowResumes
	sums[cls] = s
}

// exchangeClass collapses an exchange name to the label value of the
// broker families: "goflow" (GFX), "client" (E.*), "location" (loc.*)
// or "app" (everything else). With one exchange and queue per mobile
// client (Figure 3's topology at 3,000+ registered users), labeling by
// name would grow the registry with the user base.
func exchangeClass(name string) string {
	switch {
	case name == GoFlowExchange:
		return "goflow"
	case strings.HasPrefix(name, "E."):
		return "client"
	case strings.HasPrefix(name, "loc."):
		return "location"
	default:
		return "app"
	}
}

// queueClass collapses a queue name to "goflow" (GF), "client" (Q.*)
// or "other".
func queueClass(name string) string {
	switch {
	case name == GoFlowQueue:
		return "goflow"
	case strings.HasPrefix(name, "Q."):
		return "client"
	default:
		return "other"
	}
}

// Subscribe registers the client's interest in a datatype at a zone
// (e.g. feedback at FR75013, journeys at the home zone FR92120, as in
// Figure 3). GoFlow lazily creates the location exchange, feeds it
// from the app exchange filtered by zone, and binds the client queue
// filtered by datatype.
func (c *Channels) Subscribe(appID, clientID, datatype, zone string) error {
	locEx := LocationExchange(zone)
	c.mu.Lock()
	if !c.locations[locEx] {
		if err := c.broker.DeclareExchange(locEx, mq.Topic); err != nil {
			c.mu.Unlock()
			return fmt.Errorf("location exchange %q: %w", locEx, err)
		}
		c.locations[locEx] = true
	}
	c.mu.Unlock()

	// Feed the location exchange with every message of the app at
	// this zone, regardless of publisher or datatype.
	feed := appID + ".*.*." + zone
	if err := c.broker.BindExchange(locEx, appID, feed); err != nil {
		return fmt.Errorf("location feed %q: %w", locEx, err)
	}
	// Deliver only the requested datatype to the client queue.
	sel := appID + ".*." + datatype + "." + zone
	if err := c.broker.BindQueue(ClientQueue(clientID), locEx, sel); err != nil {
		return fmt.Errorf("subscription binding: %w", err)
	}
	return nil
}

// Unsubscribe removes a client's datatype/zone subscription.
func (c *Channels) Unsubscribe(appID, clientID, datatype, zone string) error {
	sel := appID + ".*." + datatype + "." + zone
	return c.broker.UnbindQueue(ClientQueue(clientID), LocationExchange(zone), sel)
}
