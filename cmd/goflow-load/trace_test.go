package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: 30..50 is new
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent: 90..100
		{Name: "d", Start: 150, End: 170, Parent: 0}, // a causal successor: covers nothing
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 20, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerLinksSpansOfOneTrace(t *testing.T) {
	tr := newTracer()
	client := tr.begin("http.client", 42)
	handler := tr.begin("goflow.rest_handler.count", 42)
	engine := tr.begin("storage.count", 42)
	other := tr.begin("storage.count", 0) // no trace id: stays a root
	tr.end(engine)
	tr.end(handler)
	tr.end(client)
	tr.end(other)

	batch := tr.begin("mq.publish_rpc", 100)
	tr.link(batch, 100, 101, 102)
	tr.end(batch)
	insert := tr.begin("storage.insert", 102)
	tr.end(insert)

	spans := tr.snapshot()
	parents := []int{spans[client].Parent, spans[handler].Parent, spans[engine].Parent, spans[other].Parent, spans[insert].Parent}
	if want := []int{-1, client, handler, -1, batch}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	var nilTracer *tracer
	if idx := nilTracer.begin("x", 1); idx != -1 {
		t.Errorf("nil tracer begin = %d, want -1", idx)
	}
	nilTracer.end(-1)
	nilTracer.link(-1, 1)
}
