package client

import (
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
)

// TestMQTransportEndToEnd drives the full Figure 3 topology with the
// real broker: client exchange -> app exchange -> GoFlow queue.
func TestMQTransportEndToEnd(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	// Build the topology by hand (the goflow package normally does
	// this; the transport must work against the raw broker too).
	for _, ex := range []string{"E.mob1", "SC", "GFX"} {
		if err := broker.DeclareExchange(ex, mq.Topic); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.DeclareQueue("GF", mq.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindExchange("SC", "E.mob1", "SC.mob1.#"); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindExchange("GFX", "SC", "#"); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("GF", "GFX", "#"); err != nil {
		t.Fatal(err)
	}

	tr := NewMQTransport(broker, "E.mob1", "SC", "mob1")
	u, err := NewUploader(Config{ClientID: "mob1", AppID: "SC", Version: "1.2.9", BufferSize: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		if err := u.Record(testObs(now.Add(time.Duration(i) * time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	sent, err := u.Flush(now.Add(2*time.Minute), true)
	if err != nil || sent != 2 {
		t.Fatalf("flush: sent=%d err=%v", sent, err)
	}
	st, err := broker.QueueStats("GF")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 2 {
		t.Fatalf("GF ready = %d, want 2", st.Ready)
	}
	// The payload decodes back into the observation with headers.
	d := nextDelivery(t, broker, "GF")
	obs, err := sensing.DecodeObservation(d.Body)
	if err != nil {
		t.Fatal(err)
	}
	if obs.AppVersion != "1.2.9" || d.Headers["clientId"] != "mob1" {
		t.Fatalf("delivery mismatch: %+v headers=%v", obs, d.Headers)
	}
}

// nextDelivery consumes the next message of queue and acks it,
// failing the test when none arrives within a second.
func nextDelivery(t *testing.T, b *mq.Broker, queue string) mq.Delivery {
	t.Helper()
	c, err := b.Consume(queue, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel()
	select {
	case d := <-c.C():
		if err := c.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
		return d
	case <-time.After(time.Second):
		t.Fatalf("no delivery on %s", queue)
		return mq.Delivery{}
	}
}

func TestMQTransportPublishErrorSurfaces(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	// No exchange declared: publish fails, uploader keeps the batch.
	tr := NewMQTransport(broker, "E.ghost", "SC", "ghost")
	u, err := NewUploader(Config{ClientID: "ghost", AppID: "SC", Version: "1.3", BufferSize: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Record(testObs(time.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Flush(time.Now(), true); err == nil {
		t.Fatal("publish to missing exchange must fail")
	}
	if len(u.queue) != 1 {
		t.Fatal("batch must stay queued after failure")
	}
}

func TestRecordingTransportCapturesBatchMetadata(t *testing.T) {
	tr := &RecordingTransport{}
	batch := []*sensing.Observation{testObs(time.Unix(100, 0)), testObs(time.Unix(200, 0))}
	for _, o := range batch {
		o.AppVersion = "1.3"
	}
	at := time.Unix(300, 0)
	if err := tr.Send(batch, at); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
	for i, r := range tr.Records {
		if !r.SentAt.Equal(at) || r.Batch != 2 || r.Version != "1.3" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// countingPublisher implements only Publisher — no PublishBatch — so
// the transport must fall back to per-message publishes against it.
type countingPublisher struct {
	publishes int
}

func (p *countingPublisher) PublishAt(exchange, key string, h map[string]string, body []byte, at time.Time) (int, error) {
	p.publishes++
	return 1, nil
}

// countingBatchPublisher records whether the batch surface was used.
type countingBatchPublisher struct {
	countingPublisher
	batches    int
	batchSizes []int
}

func (p *countingBatchPublisher) PublishBatch(exchange string, items []mq.PublishItem) (int, error) {
	p.batches++
	p.batchSizes = append(p.batchSizes, len(items))
	return len(items), nil
}

// TestMQTransportBatchUpgradeAndFallback pins the transport's publisher
// negotiation: multi-observation flushes go through PublishBatch when
// the publisher offers it, single observations and plain publishers
// use PublishAt.
func TestMQTransportBatchUpgradeAndFallback(t *testing.T) {
	at := time.Unix(500, 0)
	batch := []*sensing.Observation{testObs(time.Unix(100, 0)), testObs(time.Unix(200, 0)), testObs(time.Unix(300, 0))}

	plain := &countingPublisher{}
	if err := NewMQTransport(plain, "E.m", "SC", "m").Send(batch, at); err != nil {
		t.Fatal(err)
	}
	if plain.publishes != 3 {
		t.Fatalf("plain publisher saw %d publishes, want 3 (fallback path)", plain.publishes)
	}

	bp := &countingBatchPublisher{}
	if err := NewMQTransport(bp, "E.m", "SC", "m").Send(batch, at); err != nil {
		t.Fatal(err)
	}
	if bp.batches != 1 || bp.publishes != 0 || bp.batchSizes[0] != 3 {
		t.Fatalf("batch publisher saw batches=%d sizes=%v publishes=%d, want one batch of 3",
			bp.batches, bp.batchSizes, bp.publishes)
	}

	// A single observation is not worth a batch frame.
	bp2 := &countingBatchPublisher{}
	if err := NewMQTransport(bp2, "E.m", "SC", "m").Send(batch[:1], at); err != nil {
		t.Fatal(err)
	}
	if bp2.batches != 0 || bp2.publishes != 1 {
		t.Fatalf("single-obs send used batches=%d publishes=%d, want 0/1", bp2.batches, bp2.publishes)
	}
}

// TestMQTransportBatchDeliversThroughTopology checks the batch path
// end to end on the real broker chain.
func TestMQTransportBatchDeliversThroughTopology(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	for _, ex := range []string{"E.mob9", "SC", "GFX"} {
		if err := broker.DeclareExchange(ex, mq.Topic); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.DeclareQueue("GF", mq.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindExchange("SC", "E.mob9", "SC.mob9.#"); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindExchange("GFX", "SC", "#"); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("GF", "GFX", "#"); err != nil {
		t.Fatal(err)
	}
	tr := NewMQTransport(broker, "E.mob9", "SC", "mob9")
	at := time.Unix(900, 0)
	batch := []*sensing.Observation{testObs(time.Unix(100, 0)), testObs(time.Unix(200, 0))}
	for _, o := range batch {
		o.AppVersion = "2.0"
	}
	if err := tr.Send(batch, at); err != nil {
		t.Fatal(err)
	}
	st, err := broker.QueueStats("GF")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != 2 {
		t.Fatalf("GF ready = %d, want 2", st.Ready)
	}
	d := nextDelivery(t, broker, "GF")
	if d.Headers["clientId"] != "mob9" || d.Headers["appVersion"] != "2.0" {
		t.Fatalf("headers = %v", d.Headers)
	}
	if !d.PublishedAt.Equal(at) {
		t.Fatalf("publishedAt = %v, want %v", d.PublishedAt, at)
	}
}
