package mq_test

import (
	"fmt"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
)

func ExampleBroker_BindQueue() {
	// Topic patterns: "*" matches one word, "#" zero or more.
	broker := mq.NewBroker()
	defer broker.Close()
	if err := broker.DeclareExchange("SC", mq.Topic); err != nil {
		fmt.Println(err)
	}
	for queue, pattern := range map[string]string{
		"feedback": "SC.*.feedback.FR75013",
		"mob1":     "SC.mob1.#",
	} {
		if err := broker.DeclareQueue(queue, mq.QueueOptions{}); err != nil {
			fmt.Println(err)
		}
		if err := broker.BindQueue(queue, "SC", pattern); err != nil {
			fmt.Println(err)
		}
	}
	for _, key := range []string{"SC.mob1.feedback.FR75013", "SC.mob1.obs.FR75013", "SC.mob2.obs.FR75013"} {
		n, err := broker.PublishAt("SC", key, nil, nil, time.Now())
		if err != nil {
			fmt.Println(err)
		}
		fmt.Println(key, "reached", n, "queue(s)")
	}
	// Output:
	// SC.mob1.feedback.FR75013 reached 2 queue(s)
	// SC.mob1.obs.FR75013 reached 1 queue(s)
	// SC.mob2.obs.FR75013 reached 0 queue(s)
}

func ExampleBroker() {
	// The Figure 3 topology in miniature: a client exchange feeds the
	// app exchange (filtered by client id), which feeds the GoFlow
	// queue.
	broker := mq.NewBroker()
	defer broker.Close()

	must := func(err error) {
		if err != nil {
			fmt.Println(err)
		}
	}
	must(broker.DeclareExchange("E.mob1", mq.Topic))
	must(broker.DeclareExchange("SC", mq.Topic))
	must(broker.DeclareQueue("GF", mq.QueueOptions{}))
	must(broker.BindExchange("SC", "E.mob1", "SC.mob1.#"))
	must(broker.BindQueue("GF", "SC", "#"))

	n, err := broker.PublishAt("E.mob1", "SC.mob1.obs.FR75013", nil, []byte(`{"spl":61.5}`), time.Now())
	must(err)
	fmt.Println("delivered to", n, "queue(s)")

	c, err := broker.Consume("GF", 1)
	must(err)
	d := <-c.C()
	fmt.Println(string(d.Body))
	must(c.Ack(d.Tag))
	c.Cancel()
	// Output:
	// delivered to 1 queue(s)
	// {"spl":61.5}
}
