package docstore

import (
	"testing"

	"github.com/urbancivics/goflow/internal/obs"
)

// TestHooksObserveOperations checks that an instrumented store times
// each operation into docstore_op_duration_seconds and counts each
// query's index outcome, for collections created after Instrument too.
func TestHooksObserveOperations(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore()
	s.Instrument(reg)
	ops := reg.HistogramVec("docstore_op_duration_seconds", "Document store operation latency.", nil, "collection", "op")
	queries := reg.CounterVec("docstore_queries_total", "Queries by collection and index outcome.", "collection", "index")

	c := s.Collection("obsv")
	c.EnsureIndex("client")
	id, err := c.Insert(Doc{"client": "u1", "db": 61.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"client": "u2", "db": 55.0}); err != nil {
		t.Fatal(err)
	}
	// Indexed query, then a full-scan query.
	if _, err := c.FindIDs(Doc{"client": "u1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FindIDs(Doc{"db": 61.0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(id, Doc{"db": 62.0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Collection("other").InsertMany([]Doc{{"x": 1}, {"x": 2}, {"x": 3}}); err != nil {
		t.Fatal(err)
	}

	for _, w := range []struct {
		col, op string
		n       uint64
	}{{"obsv", "insert", 2}, {"obsv", "query", 2}, {"obsv", "update", 1}, {"obsv", "delete", 1}, {"other", "insert", 3}} {
		if got := ops.With(w.col, w.op).Count(); got != w.n {
			t.Errorf("%s %s timings = %d, want %d", w.col, w.op, got, w.n)
		}
	}
	if hit, miss := queries.With("obsv", "hit").Value(), queries.With("obsv", "miss").Value(); hit != 1 || miss != 1 {
		t.Fatalf("queries hit/miss = %d/%d, want 1/1", hit, miss)
	}
}

func TestNilHooksSafe(t *testing.T) {
	// A store that was never instrumented must work exactly as before.
	s := NewStore()
	c := s.Collection("c")
	id, err := c.Insert(Doc{"v": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertMany([]Doc{{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FindIDs(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(id, Doc{"v": 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
}
