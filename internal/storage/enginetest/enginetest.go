// Package enginetest is the conformance suite for storage.Engine
// implementations. Every engine — the single-node Local, the sharded
// Router, an elected replication-group node (cluster.Node's Engine) —
// must behave identically through the Engine interface; this suite is
// the executable definition of "identically". New engines call Run with
// a constructor.
package enginetest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
)

// Run exercises one Engine built per subtest by mk.
func Run(t *testing.T, mk func(t *testing.T) storage.Engine) {
	t.Helper()
	t.Run("InsertGetDelete", func(t *testing.T) { testInsertGetDelete(t, mk(t)) })
	t.Run("InsertManyPrefix", func(t *testing.T) { testInsertManyPrefix(t, mk(t)) })
	t.Run("FindSortSkipLimit", func(t *testing.T) { testFindSortSkipLimit(t, mk(t)) })
	t.Run("UpdateUnset", func(t *testing.T) { testUpdateUnset(t, mk(t)) })
	t.Run("IndexedFind", func(t *testing.T) { testIndexedFind(t, mk(t)) })
	t.Run("CountAndDeleteMany", func(t *testing.T) { testCountAndDeleteMany(t, mk(t)) })
	t.Run("ContextCancel", func(t *testing.T) { testContextCancel(t, mk(t)) })
	t.Run("RowsAgreeWithDocs", func(t *testing.T) { testRowsAgreeWithDocs(t, mk(t)) })
}

func testInsertGetDelete(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	id, err := e.Insert("obs", storage.Doc{"device": "d1", "spl": 61.5})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("Insert minted no id")
	}
	got, err := e.Get("obs", id)
	if err != nil {
		t.Fatal(err)
	}
	if got["device"] != "d1" || got["spl"] != 61.5 {
		t.Fatalf("Get = %v", got)
	}
	// The duplicate carries the same shard key ("device") as the
	// original: document identity is scoped to the shard-key partition,
	// so sharded engines only promise duplicate detection within it.
	if _, err := e.Insert("obs", storage.Doc{"_id": id, "device": "d1"}); !errors.Is(err, docstore.ErrDuplicateID) {
		t.Fatalf("duplicate insert = %v, want ErrDuplicateID", err)
	}
	if err := e.Delete("obs", id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("obs", id); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := e.Delete("obs", id); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

func testInsertManyPrefix(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	if _, err := e.Insert("obs", storage.Doc{"_id": "taken", "device": "d0"}); err != nil {
		t.Fatal(err)
	}
	docs := []storage.Doc{
		{"_id": "a", "device": "d1"},
		{"_id": "b", "device": "d1"},
		// Duplicate (same shard key as the original): the batch stops
		// here and later documents must not be stored.
		{"_id": "taken", "device": "d0"},
		{"_id": "c", "device": "d1"},
	}
	ids, err := e.InsertMany("obs", docs)
	if !errors.Is(err, docstore.ErrDuplicateID) {
		t.Fatalf("InsertMany with duplicate = %v, want ErrDuplicateID", err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("valid prefix ids = %v, want [a b]", ids)
	}
	if _, err := e.Get("obs", "c"); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatal("document after the failing one was stored")
	}
	// Batch of fresh docs stores everything and preserves order.
	fresh := make([]storage.Doc, 10)
	for i := range fresh {
		fresh[i] = storage.Doc{"device": fmt.Sprintf("d%d", i), "seq": i}
	}
	ids, err = e.InsertMany("obs", fresh)
	if err != nil || len(ids) != 10 {
		t.Fatalf("InsertMany = %d ids, %v", len(ids), err)
	}
}

func testFindSortSkipLimit(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	base := time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)
	var docs []storage.Doc
	for i := 0; i < 20; i++ {
		docs = append(docs, storage.Doc{
			"device":   fmt.Sprintf("d%d", i%4),
			"spl":      50.0 + float64(i),
			"sensedAt": base.Add(time.Duration(19-i) * time.Minute), // reverse time order
		})
	}
	if _, err := e.InsertMany("obs", docs); err != nil {
		t.Fatal(err)
	}
	got, err := e.FindContext(context.Background(), "obs", nil, docstore.FindOptions{
		SortField: "sensedAt", Skip: 3, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("Find returned %d docs, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, _ := got[i-1]["sensedAt"].(time.Time)
		b, _ := got[i]["sensedAt"].(time.Time)
		if b.Before(a) {
			t.Fatalf("results out of order at %d: %v after %v", i, b, a)
		}
	}
	// Skip=3 over the globally sorted set: the first three instants
	// are skipped regardless of which shard held them.
	first, _ := got[0]["sensedAt"].(time.Time)
	if want := base.Add(3 * time.Minute); !first.Equal(want) {
		t.Fatalf("first result at %v, want %v", first, want)
	}
	// Filtered scan.
	only, err := e.FindContext(context.Background(), "obs", storage.Doc{"device": "d2"}, docstore.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 5 {
		t.Fatalf("filtered Find returned %d docs, want 5", len(only))
	}
	for _, d := range only {
		if d["device"] != "d2" {
			t.Fatalf("filter leaked %v", d["device"])
		}
	}
}

func testUpdateUnset(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	id, err := e.Insert("obs", storage.Doc{"device": "d1", "spl": 60.0, "note": "raw"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update("obs", id, storage.Doc{"spl": 65.0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Unset("obs", id, "note"); err != nil {
		t.Fatal(err)
	}
	got, err := e.Get("obs", id)
	if err != nil {
		t.Fatal(err)
	}
	if got["spl"] != 65.0 {
		t.Fatalf("update lost: %v", got)
	}
	if _, has := got["note"]; has {
		t.Fatalf("unset field survived: %v", got)
	}
	if err := e.Update("obs", "nope", storage.Doc{"x": 1}); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("update of missing id = %v, want ErrNotFound", err)
	}
	if err := e.Unset("obs", "nope", "x"); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("unset of missing id = %v, want ErrNotFound", err)
	}
}

func testIndexedFind(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	e.EnsureIndex("obs", "zone")
	for i := 0; i < 30; i++ {
		if _, err := e.Insert("obs", storage.Doc{"zone": fmt.Sprintf("z%d", i%3), "seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.FindContext(context.Background(), "obs", storage.Doc{"zone": "z1"}, docstore.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("indexed find returned %d docs, want 10", len(got))
	}
	cols := e.Collections()
	if !sort.StringsAreSorted(cols) {
		t.Fatalf("Collections not sorted: %v", cols)
	}
	found := false
	for _, c := range cols {
		if c == "obs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Collections missing obs: %v", cols)
	}
}

func testCountAndDeleteMany(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	for i := 0; i < 12; i++ {
		if _, err := e.Insert("obs", storage.Doc{"device": fmt.Sprintf("d%d", i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.CountContext(context.Background(), "obs", storage.Doc{"device": "d1"})
	if err != nil || n != 6 {
		t.Fatalf("Count = %d, %v; want 6", n, err)
	}
	all, err := e.CountContext(context.Background(), "obs", nil)
	if err != nil || all != 12 {
		t.Fatalf("Count(all) = %d, %v; want 12", all, err)
	}
	removed, err := e.DeleteMany("obs", storage.Doc{"device": "d0"})
	if err != nil || removed != 6 {
		t.Fatalf("DeleteMany = %d, %v; want 6", removed, err)
	}
	rest, err := e.CountContext(context.Background(), "obs", nil)
	if err != nil || rest != 6 {
		t.Fatalf("Count after DeleteMany = %d, %v; want 6", rest, err)
	}
}

func testContextCancel(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	if _, err := e.Insert("obs", storage.Doc{"device": "d1"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.FindContext(ctx, "obs", storage.Doc{"device": "d1"}, docstore.FindOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Find on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := e.CountContext(ctx, "obs", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count on cancelled ctx = %v, want context.Canceled", err)
	}
}

// testRowsAgreeWithDocs: the row reads are the document reads without
// the copies — the same documents in the same order under every
// combination of filter, sort (ties included), skip and limit, whole
// whatever the projection — and stop on a cancelled context alike.
func testRowsAgreeWithDocs(t *testing.T, e storage.Engine) {
	defer func() { _ = e.Close() }()
	ctx := context.Background()
	e.EnsureIndex("obs", "zone")
	base := time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 48; i++ {
		// The sort key ties in runs of six, across shard keys; every
		// eighth document lacks it and sorts first.
		d := storage.Doc{"device": fmt.Sprintf("d%d", i%7), "zone": fmt.Sprintf("z%d", i%3), "seq": i,
			"loc": map[string]any{"lat": 48.0 + float64(i)}}
		if i%8 != 0 {
			d["sensedAt"] = base.Add(time.Duration(i*5%48/6) * time.Minute)
		}
		if _, err := e.Insert("obs", d); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, rows []docstore.Row, docs []storage.Doc, projection []string) {
		t.Helper()
		if len(rows) != len(docs) {
			t.Fatalf("%s: %d rows for %d documents", what, len(rows), len(docs))
		}
		for i, r := range rows {
			if got := r.Doc(projection); fmt.Sprint(got) != fmt.Sprint(docs[i]) {
				t.Fatalf("%s: row %d is %v, document %v", what, i, got, docs[i])
			}
			if r.Value("seq") == nil || r.Value("device") == nil {
				t.Fatalf("%s: row %d is not the whole document: %v", what, i, r.Names())
			}
		}
	}
	for _, filter := range []storage.Doc{nil, {"zone": "z1"}, {"device": "d3"}, {"seq": map[string]any{"$gte": 20}}, {"zone": "nowhere"}} {
		for _, opts := range []docstore.FindOptions{
			{}, {Limit: 5}, {Skip: 4, Limit: 9}, {Skip: 100},
			{SortField: "sensedAt"}, {SortField: "sensedAt", SortDesc: true},
			{SortField: "sensedAt", Skip: 3, Limit: 10}, {SortField: "sensedAt", SortDesc: true, Skip: 7, Limit: 2},
			{SortField: "sensedAt", Limit: 6, Projection: []string{"seq", "absent"}}, {Projection: []string{"zone"}},
		} {
			what := fmt.Sprintf("filter %v opts %+v", filter, opts)
			docs, err := e.FindContext(ctx, "obs", filter, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rows, err := e.FindRows(ctx, "obs", filter, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			same(what, rows, docs, opts.Projection)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.FindRows(cancelled, "obs", storage.Doc{"device": "d1"}, docstore.FindOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindRows on cancelled ctx = %v, want context.Canceled", err)
	}

	sc, ok := e.(storage.CursorScanner)
	if !ok {
		return
	}
	for _, filter := range []storage.Doc{nil, {"zone": "z2"}} {
		anchor := ""
		for page := 0; ; page++ {
			what := fmt.Sprintf("filter %v page %d after %q", filter, page, anchor)
			docs, err := sc.ScanAfter(ctx, "obs", anchor, filter, 7)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			rows, err := sc.ScanRowsAfter(ctx, "obs", anchor, filter, 7)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			same(what, rows, docs, nil)
			if len(rows) == 0 {
				break
			}
			anchor, _ = rows[len(rows)-1].Value(docstore.IDField).(string)
		}
	}
	if _, err := sc.ScanRowsAfter(ctx, "obs", "no-such-anchor", nil, 1); !errors.Is(err, docstore.ErrCursorGone) {
		t.Fatalf("ScanRowsAfter a vanished anchor = %v, want ErrCursorGone", err)
	}
	if _, err := sc.ScanRowsAfter(cancelled, "obs", "", nil, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanRowsAfter on cancelled ctx = %v, want context.Canceled", err)
	}
}
