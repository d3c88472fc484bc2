package docstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestInsertGetRoundTrip(t *testing.T) {
	c := NewStore().Collection("obs")
	id, err := c.Insert(Doc{"spl": 61.5, "model": "NEXUS 5"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("insert must assign an id")
	}
	d, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if d["spl"] != 61.5 || d["model"] != "NEXUS 5" || d[IDField] != id {
		t.Fatalf("round trip mismatch: %v", d)
	}
}

func TestInsertExplicitAndDuplicateID(t *testing.T) {
	c := NewStore().Collection("obs")
	if _, err := c.Insert(Doc{IDField: "fixed", "v": 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Insert(Doc{IDField: "fixed", "v": 2})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert = %v, want ErrDuplicateID", err)
	}
}

func TestInsertCopiesInput(t *testing.T) {
	c := NewStore().Collection("obs")
	doc := Doc{"list": []any{1, 2}, "nested": map[string]any{"a": 1}}
	id, err := c.Insert(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's doc must not affect the stored copy.
	doc["list"].([]any)[0] = 99
	doc["nested"].(map[string]any)["a"] = 99
	stored, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if stored["list"].([]any)[0] != 1 || stored["nested"].(map[string]any)["a"] != 1 {
		t.Fatal("stored document shares memory with caller input")
	}
	// And mutating the returned doc must not affect storage.
	stored["list"].([]any)[1] = 99
	again, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if again["list"].([]any)[1] != 2 {
		t.Fatal("Get must return an independent copy")
	}
}

func TestUpdateAndUnset(t *testing.T) {
	c := NewStore().Collection("obs")
	id, err := c.Insert(Doc{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update(id, Doc{"a": 10, "c": 3, IDField: "evil"}); err != nil {
		t.Fatal(err)
	}
	d, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if d["a"] != 10 || d["c"] != 3 || d[IDField] != id {
		t.Fatalf("after update: %v", d)
	}
	if err := c.Unset(id, "b"); err != nil {
		t.Fatal(err)
	}
	d, err = c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, has := d["b"]; has {
		t.Fatal("b should be unset")
	}
	if err := c.Update("missing", Doc{"x": 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v, want ErrNotFound", err)
	}
}

func TestDeleteAndCompaction(t *testing.T) {
	c := NewStore().Collection("obs")
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := c.Insert(Doc{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 15; i++ {
		if err := c.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.CountContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("count after deletes = %d, want 5", n)
	}
	// Remaining docs still findable in insertion order.
	docs, err := c.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 || docs[0]["i"] != 15 {
		t.Fatalf("find after compaction: %v", docs)
	}
	if err := c.Delete(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

func TestFilters(t *testing.T) {
	c := NewStore().Collection("obs")
	now := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := []Doc{
		{"model": "A", "spl": 30.0, "localized": true, "at": now},
		{"model": "A", "spl": 60.0, "localized": false, "at": now.Add(time.Hour)},
		{"model": "B", "spl": 45.0, "localized": true, "at": now.Add(2 * time.Hour)},
		{"model": "C", "spl": 90.0, "localized": true, "at": now.Add(3 * time.Hour)},
	}
	if _, err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		filter Doc
		want   int
	}{
		{"equality", Doc{"model": "A"}, 2},
		{"eq operator", Doc{"spl": map[string]any{"$eq": 60.0}}, 1},
		{"ne", Doc{"model": map[string]any{"$ne": "A"}}, 2},
		{"gt", Doc{"spl": map[string]any{"$gt": 45.0}}, 2},
		{"gte", Doc{"spl": map[string]any{"$gte": 45.0}}, 3},
		{"lt", Doc{"spl": map[string]any{"$lt": 45.0}}, 1},
		{"lte", Doc{"spl": map[string]any{"$lte": 45.0}}, 2},
		{"range", Doc{"spl": map[string]any{"$gte": 40.0, "$lt": 70.0}}, 2},
		{"in", Doc{"model": map[string]any{"$in": []any{"A", "C"}}}, 3},
		{"nin", Doc{"model": map[string]any{"$nin": []any{"A", "C"}}}, 1},
		{"exists true", Doc{"localized": map[string]any{"$exists": true}}, 4},
		{"exists false field", Doc{"zone": map[string]any{"$exists": false}}, 4},
		{"prefix", Doc{"model": map[string]any{"$prefix": "A"}}, 2},
		{"bool equality", Doc{"localized": true}, 3},
		{"time gte", Doc{"at": map[string]any{"$gte": now.Add(2 * time.Hour)}}, 2},
		{"conjunction", Doc{"model": "A", "localized": true}, 1},
		{"int filter matches float storage", Doc{"spl": 60}, 1},
		{"empty matches all", Doc{}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := c.CountContext(context.Background(), tt.filter)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Count(%v) = %d, want %d", tt.filter, got, tt.want)
			}
		})
	}
}

func TestFilterUnknownOperator(t *testing.T) {
	c := NewStore().Collection("obs")
	if _, err := c.CountContext(context.Background(), Doc{"x": map[string]any{"$regex": "a"}}); err == nil {
		t.Fatal("unknown operator must fail")
	}
	if _, err := c.CountContext(context.Background(), Doc{"x": map[string]any{"$in": "not-a-list"}}); err == nil {
		t.Fatal("$in with non-list must fail")
	}
}

func TestRangeOperatorsDoNotCrossTypes(t *testing.T) {
	c := NewStore().Collection("obs")
	if _, err := c.Insert(Doc{"v": "text"}); err != nil {
		t.Fatal(err)
	}
	n, err := c.CountContext(context.Background(), Doc{"v": map[string]any{"$gt": 5.0}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("a string value must not satisfy a numeric range")
	}
}

func TestFindSortSkipLimitProjection(t *testing.T) {
	c := NewStore().Collection("obs")
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(Doc{"i": i, "x": 9 - i, "noise": "y"}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := c.Find(nil, FindOptions{SortField: "x", Skip: 2, Limit: 3, Projection: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("len = %d, want 3", len(docs))
	}
	// Sorted ascending by x, skipping 0 and 1 -> x = 2,3,4.
	for i, d := range docs {
		if d["x"] != 2+i {
			t.Fatalf("docs[%d][x] = %v, want %d", i, d["x"], 2+i)
		}
		if _, has := d["noise"]; has {
			t.Fatal("projection must strip unselected fields")
		}
		if _, has := d[IDField]; !has {
			t.Fatal("projection must keep _id")
		}
	}
	// Descending.
	docs, err = c.Find(nil, FindOptions{SortField: "x", SortDesc: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if docs[0]["x"] != 9 {
		t.Fatalf("desc first = %v, want 9", docs[0]["x"])
	}
	// Skip beyond result set.
	docs, err = c.Find(nil, FindOptions{Skip: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Fatalf("skip beyond = %d docs", len(docs))
	}
}

func TestFindOneAndNotFound(t *testing.T) {
	c := NewStore().Collection("obs")
	if _, err := c.findOne(Doc{"x": 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("FindOne on empty = %v, want ErrNotFound", err)
	}
	if _, err := c.Insert(Doc{"x": 1}); err != nil {
		t.Fatal(err)
	}
	d, err := c.findOne(Doc{"x": 1})
	if err != nil || d["x"] != 1 {
		t.Fatalf("FindOne = %v, %v", d, err)
	}
}

func TestIndexConsistency(t *testing.T) {
	c := NewStore().Collection("obs")
	c.EnsureIndex("model")
	idA, err := c.Insert(Doc{"model": "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Doc{"model": "B"}); err != nil {
		t.Fatal(err)
	}
	assertCount := func(model string, want int) {
		t.Helper()
		n, err := c.CountContext(context.Background(), Doc{"model": model})
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("count(%s) = %d, want %d", model, n, want)
		}
	}
	assertCount("A", 1)
	// Update moves the doc between index buckets.
	if err := c.Update(idA, Doc{"model": "B"}); err != nil {
		t.Fatal(err)
	}
	assertCount("A", 0)
	assertCount("B", 2)
	// Delete removes from the index.
	if err := c.Delete(idA); err != nil {
		t.Fatal(err)
	}
	assertCount("B", 1)
	// Index created after inserts backfills.
	c2 := NewStore().Collection("obs2")
	if _, err := c2.Insert(Doc{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	c2.EnsureIndex("k")
	n, err := c2.CountContext(context.Background(), Doc{"k": "v"})
	if err != nil || n != 1 {
		t.Fatalf("backfilled index count = %d, %v", n, err)
	}
}

func TestIndexNumericCanonicalization(t *testing.T) {
	c := NewStore().Collection("obs")
	c.EnsureIndex("n")
	if _, err := c.Insert(Doc{"n": 3}); err != nil {
		t.Fatal(err)
	}
	// Query with float must hit the int-stored doc through the index.
	n, err := c.CountContext(context.Background(), Doc{"n": 3.0})
	if err != nil || n != 1 {
		t.Fatalf("cross-width numeric index lookup = %d, %v", n, err)
	}
}

func TestDeleteMany(t *testing.T) {
	c := NewStore().Collection("obs")
	for i := 0; i < 6; i++ {
		if _, err := c.Insert(Doc{"even": i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.DeleteMany(Doc{"even": true})
	if err != nil || n != 3 {
		t.Fatalf("DeleteMany = %d, %v, want 3", n, err)
	}
	total, err := c.CountContext(context.Background(), nil)
	if err != nil || total != 3 {
		t.Fatalf("remaining = %d, %v", total, err)
	}
}

func TestStoreCollectionsAndDrop(t *testing.T) {
	s := NewStore()
	s.Collection("b")
	s.Collection("a")
	s.Collection("a") // same instance
	got := s.Collections()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Collections() = %v", got)
	}
	s.drop("a")
	if got := s.Collections(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("after drop: %v", got)
	}
}

func TestConcurrentInsertAndFind(t *testing.T) {
	c := NewStore().Collection("obs")
	c.EnsureIndex("w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Insert(Doc{"w": w, "i": i}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := c.Find(Doc{"w": w}, FindOptions{Limit: 5}); err != nil {
					t.Errorf("find: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n, err := c.CountContext(context.Background(), nil)
	if err != nil || n != 800 {
		t.Fatalf("final count = %d, %v", n, err)
	}
}

func TestStatsCounters(t *testing.T) {
	c := NewStore().Collection("obs")
	id, err := c.Insert(Doc{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update(id, Doc{"a": 2}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Docs != 1 || st.Inserted != 1 || st.Updated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompareValuesOrdering(t *testing.T) {
	now := time.Now()
	tests := []struct {
		a, b any
		want int
	}{
		{1, 2, -1},
		{2.5, 2.5, 0},
		{int64(3), 3.0, 0},
		{"a", "b", -1},
		{false, true, -1},
		{now, now.Add(time.Second), -1},
		{nil, nil, 0},
		{nil, 1, -1},  // nil sorts before numbers
		{1, "a", -1},  // numbers sort before strings
		{true, 0, -1}, // bools sort before numbers
	}
	for i, tt := range tests {
		if got := compareValues(tt.a, tt.b); got != tt.want {
			t.Errorf("#%d compareValues(%v, %v) = %d, want %d", i, tt.a, tt.b, got, tt.want)
		}
		// Antisymmetry.
		if got := compareValues(tt.b, tt.a); got != -tt.want {
			t.Errorf("#%d antisymmetry violated", i)
		}
	}
}

func TestCanonKeyAgreesWithCompare(t *testing.T) {
	// Values that compare equal must share an index key.
	pairs := [][2]any{
		{3, 3.0},
		{int64(7), 7},
		{uint32(5), 5.0},
		{"x", "x"},
		{true, true},
	}
	for _, p := range pairs {
		if compareValues(p[0], p[1]) != 0 {
			t.Fatalf("%v and %v should compare equal", p[0], p[1])
		}
		if a, b := appendCanonKey(nil, keyOf(p[0])), appendCanonKey(nil, keyOf(p[1])); string(a) != string(b) {
			t.Fatalf("index keys of %v and %v differ: %q, %q", p[0], p[1], a, b)
		}
	}
}

func TestInsertManyStopsAtError(t *testing.T) {
	c := NewStore().Collection("obs")
	docs := []Doc{
		{IDField: "a"},
		{IDField: "a"}, // duplicate
		{IDField: "b"},
	}
	ids, err := c.InsertMany(docs)
	if err == nil {
		t.Fatal("InsertMany with duplicate must fail")
	}
	if len(ids) != 1 {
		t.Fatalf("ids before failure = %v", ids)
	}
	if n, _ := c.CountContext(context.Background(), nil); n != 1 {
		t.Fatalf("stored %d docs, want 1 (b must not be inserted)", n)
	}
}

func BenchmarkInsert(b *testing.B) {
	c := NewStore().Collection("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(Doc{"spl": float64(i), "model": "X"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedFind(b *testing.B) {
	c := NewStore().Collection("bench")
	c.EnsureIndex("model")
	for i := 0; i < 10000; i++ {
		if _, err := c.Insert(Doc{"model": fmt.Sprintf("m%d", i%20), "spl": float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Find(Doc{"model": "m7"}, FindOptions{Limit: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOrFilter(t *testing.T) {
	c := NewStore().Collection("obs")
	rows := []Doc{
		{"model": "A", "spl": 30.0},
		{"model": "B", "spl": 60.0},
		{"model": "C", "spl": 90.0},
	}
	if _, err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		filter Doc
		want   int
	}{
		{"two equalities", Doc{"$or": []any{
			map[string]any{"model": "A"},
			map[string]any{"model": "C"},
		}}, 2},
		{"mixed operators", Doc{"$or": []any{
			map[string]any{"spl": map[string]any{"$lt": 40.0}},
			map[string]any{"spl": map[string]any{"$gte": 85.0}},
		}}, 2},
		{"or conjoined with field", Doc{
			"model": map[string]any{"$ne": "C"},
			"$or": []any{
				map[string]any{"spl": 30.0},
				map[string]any{"spl": 90.0},
			},
		}, 1},
		{"nested or", Doc{"$or": []any{
			map[string]any{"$or": []any{
				map[string]any{"model": "A"},
				map[string]any{"model": "B"},
			}},
		}}, 2},
		{"no branch matches", Doc{"$or": []any{
			map[string]any{"model": "Z"},
		}}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := c.CountContext(context.Background(), tt.filter)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Count = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestOrFilterValidation(t *testing.T) {
	c := NewStore().Collection("obs")
	if _, err := c.CountContext(context.Background(), Doc{"$or": "not-a-list"}); err == nil {
		t.Fatal("$or with non-list must fail")
	}
	if _, err := c.CountContext(context.Background(), Doc{"$or": []any{}}); err == nil {
		t.Fatal("empty $or must fail")
	}
	if _, err := c.CountContext(context.Background(), Doc{"$or": []any{"not-a-filter"}}); err == nil {
		t.Fatal("$or with non-filter branch must fail")
	}
	if _, err := c.CountContext(context.Background(), Doc{"$or": []any{
		map[string]any{"x": map[string]any{"$regex": "a"}},
	}}); err == nil {
		t.Fatal("$or branch with unknown operator must fail")
	}
}

// findOne returns the first matching document, ErrNotFound when none
// matches.
func (c *Collection) findOne(filter Doc) (Doc, error) {
	docs, err := c.Find(filter, FindOptions{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// drop removes a collection and its documents. Nothing serves it; the
// tests use it to put the log's drop record through replay.
func (s *Store) drop(name string) {
	s.mu.Lock()
	delete(s.collections, name)
	s.mu.Unlock()
	// Best effort: drop has no error return, so a commit-log failure
	// here cannot be surfaced; the in-memory drop stands either way.
	if tk, err := s.logStore(&Mutation{Op: OpDrop, Collection: name}); err == nil {
		_ = commitWait(tk)
	}
}

// logStore logs a store-level mutation (drop) when a log is attached.
func (s *Store) logStore(m *Mutation) (CommitTicket, error) {
	box := s.commitLog.Load()
	if box == nil {
		return nil, nil
	}
	return box.cl.Log(m)
}
