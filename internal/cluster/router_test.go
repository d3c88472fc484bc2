package cluster_test

import (
	"fmt"
	"testing"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/storage/enginetest"
)

func newTestRouter(t *testing.T, n int) (*cluster.Router, []storage.Engine) {
	t.Helper()
	shards := make([]storage.Engine, n)
	for i := range shards {
		shards[i] = storage.NewLocal(docstore.NewStore())
	}
	r, err := cluster.NewRouter(shards, cluster.RouterOptions{
		Keys: map[string]string{"obs": "device"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, shards
}

// TestRouterConformance: a Router over 1, 3 and 4 shards must be
// indistinguishable from the single-node engine through the Engine
// interface.
func TestRouterConformance(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			enginetest.Run(t, func(t *testing.T) storage.Engine {
				r, _ := newTestRouter(t, n)
				return r
			})
		})
	}
}

// TestRouterKeyLocality: all documents of one shard key land on the
// same shard, and that shard is where per-key scans find them.
func TestRouterKeyLocality(t *testing.T) {
	r, shards := newTestRouter(t, 4)
	defer func() { _ = r.Close() }()
	perDevice := 25
	for d := 0; d < 8; d++ {
		device := fmt.Sprintf("device-%d", d)
		for i := 0; i < perDevice; i++ {
			if _, err := r.Insert("obs", storage.Doc{"device": device, "seq": i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := 0; d < 8; d++ {
		device := fmt.Sprintf("device-%d", d)
		want := cluster.ShardFor(device, 4)
		for s := 0; s < 4; s++ {
			n, err := shards[s].CountContext(t.Context(), "obs", storage.Doc{"device": device})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case s == want && n != perDevice:
				t.Fatalf("device %s: shard %d holds %d docs, want %d", device, s, n, perDevice)
			case s != want && n != 0:
				t.Fatalf("device %s leaked %d docs onto shard %d (home %d)", device, n, s, want)
			}
		}
	}
}

// TestRouterUnshardedPinned: collections without a shard key (metadata)
// live wholly on shard 0.
func TestRouterUnshardedPinned(t *testing.T) {
	r, shards := newTestRouter(t, 4)
	defer func() { _ = r.Close() }()
	for i := 0; i < 10; i++ {
		if _, err := r.Insert("accounts", storage.Doc{"name": fmt.Sprintf("u%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := shards[0].CountContext(t.Context(), "accounts", nil)
	if err != nil || n != 10 {
		t.Fatalf("shard 0 holds %d metadata docs (%v), want 10", n, err)
	}
	for s := 1; s < 4; s++ {
		if n, _ := shards[s].CountContext(t.Context(), "accounts", nil); n != 0 {
			t.Fatalf("metadata leaked onto shard %d", s)
		}
	}
}

// TestRouterInsertManyFanout: a mixed-key batch spreads across shards
// and the returned ids line up positionally with the input docs.
func TestRouterInsertManyFanout(t *testing.T) {
	r, shards := newTestRouter(t, 4)
	defer func() { _ = r.Close() }()
	docs := make([]storage.Doc, 200)
	for i := range docs {
		docs[i] = storage.Doc{"device": fmt.Sprintf("device-%d", i%10), "seq": i}
	}
	ids, err := r.InsertMany("obs", docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(docs) {
		t.Fatalf("got %d ids for %d docs", len(ids), len(docs))
	}
	// Positional correspondence: ids[i] names the doc with seq i.
	for i, id := range ids {
		d, err := r.Get("obs", id)
		if err != nil {
			t.Fatalf("id %d: %v", i, err)
		}
		if d["seq"] != i {
			t.Fatalf("ids out of positional order: ids[%d] -> seq %v", i, d["seq"])
		}
	}
	// The batch genuinely fanned out.
	populated := 0
	for s := 0; s < 4; s++ {
		if n, _ := shards[s].CountContext(t.Context(), "obs", nil); n > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("batch landed on %d shard(s); expected a fan-out", populated)
	}
}
