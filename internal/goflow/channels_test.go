package goflow

import (
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
)

func newChannels(t *testing.T) (*mq.Broker, *Channels) {
	t.Helper()
	broker := mq.NewBroker()
	t.Cleanup(broker.Close)
	c, err := NewChannels(broker)
	if err != nil {
		t.Fatal(err)
	}
	return broker, c
}

func TestChannelsProvisionTopology(t *testing.T) {
	broker, c := newChannels(t)
	if err := c.ProvisionApp("SC"); err != nil {
		t.Fatal(err)
	}
	ex, q, err := c.ProvisionClient("SC", "mob1")
	if err != nil {
		t.Fatal(err)
	}
	if ex != "E.mob1" || q != "Q.mob1" {
		t.Fatalf("endpoints = %q, %q", ex, q)
	}
	// A message published on the client exchange with the client's id
	// must land in the GoFlow queue.
	n, err := broker.PublishAt(ex, routingKey("SC", "mob1", "obs", "FR75013"), nil, []byte("m"), time.Now())
	if err != nil || n != 1 {
		t.Fatalf("publish through topology: n=%d err=%v", n, err)
	}
	st, err := broker.QueueStats(GoFlowQueue)
	if err != nil || st.Ready != 1 {
		t.Fatalf("GF queue: %+v err=%v", st, err)
	}
}

func TestChannelsClientIDFilterBlocksSpoofing(t *testing.T) {
	broker, c := newChannels(t)
	if err := c.ProvisionApp("SC"); err != nil {
		t.Fatal(err)
	}
	ex, _, err := c.ProvisionClient("SC", "mob1")
	if err != nil {
		t.Fatal(err)
	}
	// mob1's exchange refuses keys claiming another client id: the
	// shared-secret binding of the paper.
	n, err := broker.PublishAt(ex, routingKey("SC", "mob2", "obs", "FR75013"), nil, []byte("m"), time.Now())
	if err != nil || n != 0 {
		t.Fatalf("spoofed publish delivered %d (err=%v), want 0", n, err)
	}
}

func TestChannelsSubscriptionRouting(t *testing.T) {
	broker, c := newChannels(t)
	if err := c.ProvisionApp("SC"); err != nil {
		t.Fatal(err)
	}
	pubEx, _, err := c.ProvisionClient("SC", "mob1")
	if err != nil {
		t.Fatal(err)
	}
	_, subQ, err := c.ProvisionClient("SC", "mob2")
	if err != nil {
		t.Fatal(err)
	}
	// mob2 wants feedback in FR75013 but not journeys, and nothing
	// from FR92120.
	if err := c.Subscribe("SC", "mob2", "feedback", "FR75013"); err != nil {
		t.Fatal(err)
	}
	publish := func(datatype, zone string) int {
		t.Helper()
		n, err := broker.PublishAt(pubEx, routingKey("SC", "mob1", datatype, zone), nil, []byte("m"), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Feedback in the zone reaches GF + mob2's queue.
	if n := publish("feedback", "FR75013"); n != 2 {
		t.Fatalf("feedback@FR75013 delivered to %d queues, want 2", n)
	}
	// Journey in the zone reaches only GF.
	if n := publish("journey", "FR75013"); n != 1 {
		t.Fatalf("journey@FR75013 delivered to %d queues, want 1", n)
	}
	// Feedback elsewhere reaches only GF.
	if n := publish("feedback", "FR92120"); n != 1 {
		t.Fatalf("feedback@FR92120 delivered to %d queues, want 1", n)
	}
	st, err := broker.QueueStats(subQ)
	if err != nil || st.Ready != 1 {
		t.Fatalf("subscriber queue: %+v err=%v", st, err)
	}
	// Unsubscribe stops delivery.
	if err := c.Unsubscribe("SC", "mob2", "feedback", "FR75013"); err != nil {
		t.Fatal(err)
	}
	if n := publish("feedback", "FR75013"); n != 1 {
		t.Fatalf("after unsubscribe delivered to %d queues, want 1", n)
	}
}

func TestChannelsMultipleSubscribersShareLocationExchange(t *testing.T) {
	broker, c := newChannels(t)
	if err := c.ProvisionApp("SC"); err != nil {
		t.Fatal(err)
	}
	pubEx, _, err := c.ProvisionClient("SC", "mob1")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"mob2", "mob3"} {
		if _, _, err := c.ProvisionClient("SC", id); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe("SC", id, "feedback", "FR75013"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := broker.PublishAt(pubEx, routingKey("SC", "mob1", "feedback", "FR75013"), nil, []byte("m"), time.Now())
	if err != nil || n != 3 { // GF + two subscriber queues
		t.Fatalf("delivered to %d queues, want 3", n)
	}
}

func TestChannelsDeprovisionClient(t *testing.T) {
	broker, c := newChannels(t)
	if err := c.ProvisionApp("SC"); err != nil {
		t.Fatal(err)
	}
	ex, q, err := c.ProvisionClient("SC", "mob1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeprovisionClient("mob1"); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.PublishAt(ex, "any", nil, nil, time.Now()); err == nil {
		t.Fatal("publish to deprovisioned exchange must fail")
	}
	if _, err := broker.QueueStats(q); err == nil {
		t.Fatal("deprovisioned queue must be gone")
	}
}

func TestRoutingKeyZoneDefault(t *testing.T) {
	if got := routingKey("SC", "c", "obs", ""); got != "SC.c.obs.ZZ" {
		t.Fatalf("RoutingKey = %q", got)
	}
}

// routingKey builds the canonical crowd-sensing routing key:
// "<app>.<client>.<datatype>.<zone>" (client.RoutingKey is its
// observation case, the one phones publish).
func routingKey(appID, clientID, datatype, zone string) string {
	if zone == "" {
		zone = "ZZ"
	}
	return appID + "." + clientID + "." + datatype + "." + zone
}
