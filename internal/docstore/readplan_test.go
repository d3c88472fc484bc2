package docstore

import (
	"context"
	"reflect"
	"strconv"
	"testing"
)

// TestIndexedOrderIsInsertionOrder pins that an index does not change
// the order of a read. Auto-assigned ids are "d" + a base-36 counter,
// so across a length boundary they stop sorting lexically in minting
// order ("d10" < "d9" < "dz"); an indexed read that orders by id
// string would page differently from the scan of the same filter, and
// offset pages differently from cursor pages.
func TestIndexedOrderIsInsertionOrder(t *testing.T) {
	// Park the id counter just below the next length boundary, wherever
	// earlier tests left it, so the inserts below cross it. (A fresh
	// process crosses "d9"/"da".."dz"/"d10" on its own.)
	boundary := uint64(36)
	for boundary <= _idCounter.Load()+3 {
		boundary *= 36
	}
	advanceIDCounter("d" + strconv.FormatUint(boundary-3, 36))

	s := NewStore()
	indexed, plain := s.Collection("indexed"), s.Collection("plain")
	indexed.EnsureIndex("k")
	var inserted []string
	for i := 0; i < 45; i++ {
		id, err := indexed.Insert(Doc{"k": "v", "i": i})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Insert(Doc{IDField: id, "k": "v", "i": i}); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	if a, b := inserted[1], inserted[5]; len(a) >= len(b) || a < b {
		t.Fatalf("ids %q, %q do not cross a length boundary", a, b)
	}

	filter := Doc{"k": "v"}
	for name, col := range map[string]*Collection{"indexed": indexed, "plain": plain} {
		ids, err := col.FindIDs(filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, inserted) {
			t.Fatalf("%s FindIDs order\n got  %v\n want %v", name, ids, inserted)
		}
		// Offset pages and cursor pages walk the same sequence.
		var byOffset, byCursor []string
		anchor := ""
		for skip := 0; skip < len(inserted); skip += 10 {
			page, err := col.Find(filter, FindOptions{Skip: skip, Limit: 10})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range page {
				byOffset = append(byOffset, d[IDField].(string))
			}
			page, err = col.FindAfterContext(context.Background(), anchor, filter, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range page {
				byCursor = append(byCursor, d[IDField].(string))
			}
			anchor = byCursor[len(byCursor)-1]
		}
		if !reflect.DeepEqual(byOffset, inserted) || !reflect.DeepEqual(byCursor, inserted) {
			t.Fatalf("%s pages\n offset %v\n cursor %v\n want   %v", name, byOffset, byCursor, inserted)
		}
	}
}

// TestBulkDeleteKeepsReadsConsistent deletes one contributor's 2 000
// documents out of 50 000 — goflow's DeleteUserData — and requires
// every read plan on the indexed collection to still agree with a twin
// that never had an index.
func TestBulkDeleteKeepsReadsConsistent(t *testing.T) {
	indexed, zones := observationStore(t, 50_000, productionIndexes)
	plain, _ := observationStore(t, 50_000, nil)
	ctx := context.Background()

	for _, col := range []*Collection{indexed, plain} {
		n, err := col.DeleteMany(Doc{"userId": "u000"})
		if err != nil || n != 2000 {
			t.Fatalf("DeleteMany = %d, %v; want 2000", n, err)
		}
	}

	// Ids differ between the two stores (one process-wide counter), so
	// compare positions: the i-th document of either is the same
	// observation.
	fingerprint := func(docs []Doc) []any {
		out := make([]any, len(docs))
		for i, d := range docs {
			out[i] = [3]any{d["userId"], d["sensedAt"], d["spl"]}
		}
		return out
	}
	filters := []Doc{{"userId": "u000"}, {"appId": "SC"}, {"mode": "opportunistic", "deviceModel": "model-3"}}
	for _, z := range []string{zones[0], zones[len(zones)/2], zones[len(zones)-1]} {
		filters = append(filters, Doc{"appId": "SC", "zone": z}, Doc{"zone": z, "userId": "u017"})
	}
	for _, filter := range filters {
		want, err := plain.CountContext(context.Background(), filter)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := indexed.CountContext(context.Background(), filter); err != nil || got != want {
			t.Fatalf("Count(%v) = %d, %v; twin has %d", filter, got, err, want)
		}
		for _, opts := range []FindOptions{{Skip: 150, Limit: 300}, {SortField: "sensedAt", Limit: 100}, {SortField: "spl", SortDesc: true, Skip: 30, Limit: 50}} {
			got, err := indexed.Find(filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := plain.Find(filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(twin)) {
				t.Fatalf("Find(%v, %+v): %d docs differ from the twin's %d", filter, opts, len(got), len(twin))
			}
		}
		var gotAnchor, twinAnchor string
		for pages := 0; pages < 5; pages++ {
			got, err := indexed.FindAfterContext(ctx, gotAnchor, filter, 100)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := plain.FindAfterContext(ctx, twinAnchor, filter, 100)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(got), fingerprint(twin)) {
				t.Fatalf("cursor page %d of %v differs from the twin's", pages, filter)
			}
			if len(got) == 0 {
				break
			}
			gotAnchor = got[len(got)-1][IDField].(string)
			twinAnchor = twin[len(twin)-1][IDField].(string)
		}
	}
}
