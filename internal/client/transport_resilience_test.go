package client

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/sensing"
)

// MQTransport over a resilient conn: the mobile uplink dies mid-stream
// and the upload continues on the next transport with zero observation
// loss and zero duplicates — Send never surfaces the outage to the
// uploader.
func TestMQTransportSurvivesTransportBounce(t *testing.T) {
	broker := mq.NewBroker()
	srv, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); broker.Close() })

	var mu sync.Mutex
	var conns []net.Conn
	conn, err := mq.DialResilient(srv.Addr(), mq.ReconnectConfig{
		Dialer: func(addr string) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			return nc, nil
		},
		BackoffBase: time.Millisecond,
		Seed:        1,
		RPCTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := broker.DeclareExchange("E.mob1", mq.Fanout); err != nil {
		t.Fatal(err)
	}
	if err := broker.DeclareQueue("Q.goflow", mq.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BindQueue("Q.goflow", "E.mob1", ""); err != nil {
		t.Fatal(err)
	}

	transport := NewMQTransport(conn, "E.mob1", "SC", "mob1")
	base := time.Unix(1_600_000_000, 0).UTC()
	const batches, perBatch = 10, 3
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			// Kill the uplink mid-stream and wait for recovery, as a
			// dead radio would force.
			mu.Lock()
			nc := conns[len(conns)-1]
			mu.Unlock()
			_ = nc.Close()
			deadline := time.Now().Add(5 * time.Second)
			for conn.Stats().Reconnects < 1 {
				if time.Now().After(deadline) {
					t.Fatal("reconnect did not complete")
				}
				time.Sleep(time.Millisecond)
			}
		}
		batch := make([]*sensing.Observation, 0, perBatch)
		for j := 0; j < perBatch; j++ {
			batch = append(batch, &sensing.Observation{
				UserID:      "mob1",
				DeviceModel: "LGE NEXUS 5",
				SPL:         float64(i*perBatch + j),
				SensedAt:    base.Add(time.Duration(i*perBatch+j) * time.Second),
			})
		}
		if err := transport.Send(batch, base); err != nil {
			t.Fatalf("send batch %d across bounce: %v", i, err)
		}
	}

	// Drain the server-side queue and verify exactly-once arrival.
	seen := make(map[int]bool)
	consumer, err := broker.Consume("Q.goflow", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Cancel()
	for len(seen) < batches*perBatch {
		var d mq.Delivery
		select {
		case d = <-consumer.C():
		case <-time.After(time.Second):
			t.Fatalf("queue drained early: %d/%d observations", len(seen), batches*perBatch)
		}
		o, err := sensing.DecodeObservation(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		v := int(o.SPL)
		if seen[v] {
			t.Fatalf("observation %d uploaded twice", v)
		}
		seen[v] = true
		if err := consumer.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := broker.QueueStats("Q.goflow"); err != nil || st.Ready != 0 || st.Unacked != 0 {
		t.Fatalf("queue should be empty after drain (%+v, err=%v)", st, err)
	}
	if st := conn.Stats(); st.Reconnects < 1 {
		t.Fatalf("expected at least one reconnect, got %+v", st)
	}
}
