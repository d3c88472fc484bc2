package soundcity

import (
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
)

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
		t.Fatalf("nothing delivered to %s", queue)
		return mq.Delivery{}
	}
}

// storeQueries reads how many filtered reads an instrumented store
// has counted, over every collection and index outcome.
func storeQueries(reg *obs.Registry) uint64 {
	var n uint64
	for _, f := range reg.Snapshot() {
		if f.Name != "docstore_queries_total" {
			continue
		}
		for _, m := range f.Metrics {
			n += uint64(*m.Value)
		}
	}
	return n
}
