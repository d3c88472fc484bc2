package mq

import "fmt"

// getOne takes the next ready message off a queue the way a consumer
// does: a consumer with prefetch 1 attaches (attaching dispatches
// synchronously, so a ready message is already in its channel),
// takes it and detaches. The delivery stays unacked until ackGot.
// found is false when the queue had nothing ready.
func getOne(b *Broker, queue string) (d Delivery, found bool, err error) {
	c, err := b.Consume(queue, 1)
	if err != nil {
		return Delivery{}, false, err
	}
	defer c.Cancel()
	select {
	case d = <-c.C():
		return d, true, nil
	default:
		return Delivery{}, false, nil
	}
}

// ackGot acknowledges a delivery getOne took.
func ackGot(b *Broker, queue string, tag uint64) error {
	b.mu.RLock()
	q, ok := b.queues[queue]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("ack %q: %w", queue, ErrQueueNotFound)
	}
	return q.ack(tag)
}

// publishedTotals sums the publish counters of every exchange.
func publishedTotals(st BrokerStats) (published, unroutable uint64) {
	for _, ex := range st.Exchanges {
		published += ex.Published
		unroutable += ex.Unroutable
	}
	return published, unroutable
}
