package docstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestFindContextCancelDuringMaterialization pins the deadline check
// inside the materialization loop: the id scan completes before the
// context is cancelled (the predicate cancels on the very last
// document, after the scan's final periodic check at i=255), so only
// the clone loop can notice the cancellation. Before the check
// existed there, this returned the full result set with a nil error.
func TestFindContextCancelDuringMaterialization(t *testing.T) {
	s := NewStore()
	c := s.Collection("obs")
	const n = 300 // > scanCtxCheckEvery, and n-1 not on a check boundary
	for i := 0; i < n; i++ {
		if _, err := c.Insert(Doc{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	filter := Doc{"n": Predicate(func(any) bool {
		calls++
		if calls == n {
			cancel()
		}
		return true
	})}
	docs, err := c.FindContext(ctx, filter, FindOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the materialization loop, got err=%v with %d docs", err, len(docs))
	}
	if calls != n {
		t.Fatalf("predicate saw %d of %d documents — the id scan itself aborted", calls, n)
	}
}

// TestFindContextCancelDuringScan covers the companion path: a
// context cancelled partway through the id scan aborts there.
func TestFindContextCancelDuringScan(t *testing.T) {
	s := NewStore()
	c := s.Collection("obs")
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(Doc{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	filter := Doc{"n": Predicate(func(any) bool {
		calls++
		if calls == 100 {
			cancel()
		}
		return true
	})}
	if _, err := c.FindContext(ctx, filter, FindOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from the id scan, got %v", err)
	}
	if calls >= 1000 {
		t.Fatal("scan ran to completion despite cancellation")
	}
}

// TestInsertObserverSeesLSNOrder pins the ingest-observer contract:
// the callback fires once per mutation — one document for Insert, the
// whole batch in a single call for InsertMany — in commit-log order,
// with the stored documents.
func TestInsertObserverSeesLSNOrder(t *testing.T) {
	s := NewStore()
	type seen struct {
		lsn uint64
		ns  []any
	}
	var got []seen
	s.SetIngestObserver("obs", func(lsn uint64, docs Batch) {
		ns := make([]any, docs.Len())
		for i := range ns {
			ns[i] = docs.Row(i).Value("n")
		}
		got = append(got, seen{lsn, ns})
	})
	c := s.Collection("obs")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Doc{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	docs := make([]Doc, 5)
	for i := range docs {
		docs[i] = Doc{"n": 100 + i}
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	// 5 single-doc calls plus ONE call for the whole batch: a batch
	// split into per-doc calls under its shared LSN would make derived
	// views treat docs 2..n as replays (see observer.go).
	if len(got) != 6 {
		t.Fatalf("observer fired %d times, want 6 (5 inserts + 1 batch)", len(got))
	}
	var ns []any
	for i, g := range got {
		wantLen := 1
		if i == 5 {
			wantLen = 5
		}
		if len(g.ns) != wantLen {
			t.Fatalf("call %d delivered %d docs, want %d", i, len(g.ns), wantLen)
		}
		ns = append(ns, g.ns...)
		// Without a commit log every LSN is zero; with one they are
		// monotone. Either way they must not regress.
		if i > 0 && g.lsn < got[i-1].lsn {
			t.Fatalf("LSN regressed: %d after %d", g.lsn, got[i-1].lsn)
		}
	}
	for i, n := range ns {
		wantN := i
		if i >= 5 {
			wantN = 100 + (i - 5)
		}
		if fmt.Sprint(n) != fmt.Sprint(wantN) {
			t.Fatalf("observation %d: n=%v, want %v", i, n, wantN)
		}
	}
	// Detaching stops deliveries.
	s.SetIngestObserver("obs", nil)
	if _, err := c.Insert(Doc{"n": 999}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatal("observer fired after detach")
	}
}
