package faults_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/client"
	"github.com/urbancivics/goflow/internal/faults"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
)

// Chaos suite: a mobile client publishes observation batches through a
// fault-injected link while a clean backend consumer drains the queue.
// Whatever the nemesis does — resets, drops, delays, partitions — every
// observation must arrive exactly once: reconnect and publish retry
// supply the at-least-once half and the broker's idempotency-token
// dedup supplies the at-most-once half.
//
// Every schedule is reproducible: re-run a failing case with the seed
// from its subtest name / log line.

// 96 observations in batches of 4 put 24 publish frames on the
// uplink: enough for every frame-counting schedule below to force its
// minimum number of outages.
const (
	chaosObservations = 96
	chaosBatch        = 4
)

func TestChaosExactlyOnceDelivery(t *testing.T) {
	scenarios := []struct {
		name string
		plan faults.Plan
		// minReconnects asserts the schedule really forced outages.
		minReconnects uint64
		// wantDedup asserts the broker answered retries from the
		// idempotency window (lost-response schedules only).
		wantDedup bool
	}{
		{"reset-every-6-frames", faults.Plan{ResetEvery: 6}, 3, false},
		{"drop-5pct", faults.Plan{DropProb: 0.05}, 0, false},
		{"delay-50ms-25pct", faults.Plan{DelayProb: 0.25, Delay: 50 * time.Millisecond}, 0, false},
		{"partition-after-6-frames", faults.Plan{PartitionAfterWrites: 6}, 3, false},
		{"lost-responses-after-8-frames", faults.Plan{BlockReadsAfterWrites: 8}, 3, true},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 5; seed++ {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				runChaos(t, seed, sc.plan, sc.minReconnects, sc.wantDedup)
			})
		}
	}
}

func runChaos(t *testing.T, seed int64, plan faults.Plan, minReconnects uint64, wantDedup bool) {
	t.Logf("chaos schedule seed=%d plan=%+v — reproduce by fixing this seed", seed, plan)
	broker := mq.NewBroker()
	srv, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	defer srv.Close()

	inj := faults.New(seed, plan)
	pub, err := mq.DialResilient(srv.Addr(), mq.ReconnectConfig{
		Dialer:         inj.Dialer(nil),
		MaxAttempts:    -1, // the nemesis outlasts any fixed budget
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           seed,
		PublishRetries: 64,
		RPCTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()

	// The server provisions the topology in process, as goflow.Channels
	// does when a client registers.
	if err := broker.DeclareExchange("E.chaos", mq.Fanout); err != nil {
		t.Fatal(err)
	}
	if err := broker.DeclareQueue("Q.chaos", mq.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("Q.chaos", "E.chaos", ""); err != nil {
		t.Fatal(err)
	}

	// The backend consumer uses a clean link: the faults under test are
	// on the mobile uplink.
	sub, err := mq.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sub.Close() }()
	rc, err := sub.Consume("Q.chaos", 0)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 4*chaosObservations)
	go func() {
		for d := range rc.C() {
			o, err := sensing.DecodeObservation(d.Body)
			if err != nil {
				t.Errorf("decode delivery: %v", err)
				return
			}
			if err := rc.Ack(d.Tag); err != nil {
				return // consumer conn torn down at test end
			}
			got <- int(o.SPL)
		}
	}()

	// Publish through the real mobile pipeline: MQTransport batches on
	// the resilient conn, each observation carrying its own token.
	transport := client.NewMQTransport(pub, "E.chaos", "SC", "mob1")
	base := time.Unix(1_600_000_000, 0).UTC()
	for i := 0; i < chaosObservations; i += chaosBatch {
		batch := make([]*sensing.Observation, 0, chaosBatch)
		for j := i; j < i+chaosBatch; j++ {
			batch = append(batch, &sensing.Observation{
				UserID:      "mob1",
				DeviceModel: "LGE NEXUS 5",
				Mode:        sensing.Manual,
				SPL:         float64(j), // the observation's identity
				SensedAt:    base.Add(time.Duration(j) * time.Second),
			})
		}
		if err := transport.Send(batch, base); err != nil {
			t.Fatalf("send batch %d: %v", i/chaosBatch, err)
		}
	}

	seen := make(map[int]bool)
	timeout := time.After(30 * time.Second)
	for len(seen) < chaosObservations {
		select {
		case v := <-got:
			if seen[v] {
				t.Fatalf("observation %d delivered twice (duplicate despite idempotency tokens)", v)
			}
			seen[v] = true
		case <-timeout:
			t.Fatalf("lost observations: %d/%d delivered after 30s (stats %+v, faults %+v)",
				len(seen), chaosObservations, pub.Stats(), inj.Counts())
		}
	}
	for v := 0; v < chaosObservations; v++ {
		if !seen[v] {
			t.Fatalf("observation %d never delivered", v)
		}
	}
	// Let any straggler redelivery surface, then check for duplicates.
	time.Sleep(100 * time.Millisecond)
	select {
	case v := <-got:
		t.Fatalf("late duplicate delivery of observation %d", v)
	default:
	}

	st := pub.Stats()
	cts := inj.Counts()
	t.Logf("delivered %d exactly-once: reconnects=%d publishRetries=%d dedupHits=%d faults=%+v",
		chaosObservations, st.Reconnects, st.PublishRetries,
		broker.Stats().PublishDedupHits, cts)
	if st.Reconnects < minReconnects {
		t.Errorf("schedule forced %d reconnects, want >= %d", st.Reconnects, minReconnects)
	}
	if wantDedup && broker.Stats().PublishDedupHits == 0 {
		t.Error("lost-response schedule produced no idempotency dedup hits")
	}
}
