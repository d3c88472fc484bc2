package docstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/wal"
)

// Differential property test for the posting-list indexes: a seeded
// random program of every mutation the store has runs against an
// indexed collection and a twin that holds the same documents with no
// index at all, and after each step every read — ids, shaped finds,
// counts, cursor walks — must give the same answer on both. The indexed
// side additionally goes through snapshot restores and full WAL replays
// into fresh stores, so index rebuilds are held to the same answers.

const propCol = "c"

var (
	propT0 = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	// propDomain lists, per field, the values documents and filters
	// draw from: small, so values collide; mixed in kind, so the
	// canonical index keys (3 == 3.0, times, the shared bucket of
	// unindexable kinds) are exercised.
	propDomain = map[string][]any{
		"a": {"x", "y", "z", 1.0, 2, true, propT0, []any{"u"}},
		"b": {"b0", "b1", "b2", "b3", "b4"},
		"c": {"hot", "hot", "hot", "hot", "cold", 3.0},
		"n": {0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0},
		"s": {"p1-a", "p1-b", "p2-a", "q"},
	}
	propFields = []string{"a", "b", "c", "n", "s"}
)

func propValue(rng *rand.Rand, field string) any {
	d := propDomain[field]
	return cloneValue(d[rng.Intn(len(d))])
}

func propDoc(rng *rand.Rand) Doc {
	d := Doc{}
	for _, f := range propFields {
		if rng.Intn(100) < 85 {
			d[f] = propValue(rng, f)
		}
	}
	if rng.Intn(20) == 0 {
		// Not a filter value (a map there is an operator document), but
		// it shares the unindexable bucket with the slice above.
		d["a"] = map[string]any{"k": "v"}
	}
	return d
}

// propFilter draws a filter: equality on indexed and unindexed fields,
// alone and combined, operators, $or, and values no document holds.
func propFilter(rng *rand.Rand) Doc {
	v := func(f string) any { return propValue(rng, f) }
	switch rng.Intn(14) {
	case 0:
		return Doc{"a": v("a")}
	case 1:
		return Doc{"a": v("a"), "c": v("c")}
	case 2:
		return Doc{"b": v("b"), "n": map[string]any{"$gte": v("n")}}
	case 3:
		return Doc{"c": "hot", "a": map[string]any{"$in": []any{v("a"), v("a")}}}
	case 4:
		return Doc{"$or": []any{map[string]any{"a": v("a")}, map[string]any{"b": v("b")}}}
	case 5:
		return Doc{"c": v("c"), "$or": []any{map[string]any{"n": map[string]any{"$lt": v("n")}}, map[string]any{"s": "q"}}}
	case 6:
		return Doc{"n": map[string]any{"$lt": v("n")}}
	case 7:
		return Doc{"a": nil}
	case 8:
		return Doc{"a": map[string]any{"$ne": v("a")}}
	case 9:
		return Doc{"c": map[string]any{"$exists": false}, "b": v("b")}
	case 10:
		return Doc{"a": 1, "c": 3} // ints against stored floats
	case 11:
		return Doc{"b": "never-stored"}
	case 12:
		return nil
	default:
		return Doc{"s": map[string]any{"$prefix": "p1"}, "c": v("c")}
	}
}

func propFindOptions(rng *rand.Rand) FindOptions {
	opts := FindOptions{
		SortField: []string{"", "", "n", "a", "s"}[rng.Intn(5)],
		SortDesc:  rng.Intn(2) == 0,
		Skip:      []int{0, 0, 1, 4, 1000}[rng.Intn(5)],
		Limit:     []int{0, 1, 3, 10}[rng.Intn(4)],
	}
	if rng.Intn(3) == 0 {
		opts.Projection = []string{"a", "n", "missing"}
	}
	return opts
}

// render gives documents a canonical form to compare (key order fixed,
// times by instant, ints and floats by value).
func render(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertReadsAgree compares every read of filter on the indexed
// collection with the same read on its index-less twin.
func assertReadsAgree(t *testing.T, rng *rand.Rand, got, want *Collection, filter Doc, anchors []string) {
	t.Helper()
	ctx := context.Background()
	where := fmt.Sprintf("filter %v", filter)

	gotIDs, err := got.FindIDs(filter)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, err := want.FindIDs(filter)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := render(t, gotIDs), render(t, wantIDs); g != w {
		t.Fatalf("%s: FindIDs\n indexed %s\n twin    %s", where, g, w)
	}
	n, err := got.CountContext(context.Background(), filter)
	if err != nil || n != len(wantIDs) {
		t.Fatalf("%s: Count = %d, %v; twin finds %d", where, n, err, len(wantIDs))
	}

	for i := 0; i < 3; i++ {
		opts := propFindOptions(rng)
		gotDocs, err := got.Find(filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantDocs, err := want.Find(filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := render(t, gotDocs), render(t, wantDocs); g != w {
			t.Fatalf("%s: Find %+v\n indexed %s\n twin    %s", where, opts, g, w)
		}
	}

	// One page resumed at each given anchor (live and deleted ids), then
	// a full walk from the start, which must visit what FindIDs lists.
	limit := []int{1, 3, 7, 0}[rng.Intn(4)]
	page := func(anchor string) []Doc {
		t.Helper()
		gotPage, gotErr := got.FindAfterContext(ctx, anchor, filter, limit)
		wantPage, wantErr := want.FindAfterContext(ctx, anchor, filter, limit)
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrCursorGone) != errors.Is(wantErr, ErrCursorGone) {
			t.Fatalf("%s: FindAfter(%q) errors: indexed %v, twin %v", where, anchor, gotErr, wantErr)
		}
		if g, w := render(t, gotPage), render(t, wantPage); g != w {
			t.Fatalf("%s: FindAfter(%q, limit %d)\n indexed %s\n twin    %s", where, anchor, limit, g, w)
		}
		return gotPage
	}
	for _, anchor := range anchors {
		page(anchor)
	}
	walked := make([]string, 0, len(wantIDs))
	for anchor := ""; len(walked) <= len(wantIDs); {
		docs := page(anchor)
		for _, d := range docs {
			walked = append(walked, d[IDField].(string))
		}
		if len(docs) == 0 || limit == 0 {
			break
		}
		anchor = walked[len(walked)-1]
	}
	if g, w := render(t, walked), render(t, wantIDs); g != w {
		t.Fatalf("%s: cursor walk (limit %d) visits\n %s\nFindIDs gives\n %s", where, limit, g, w)
	}
}

// propRun is one seeded program over the indexed store and its twin.
type propRun struct {
	t   *testing.T
	rng *rand.Rand
	dir string
	w   *wal.WAL
	// cur is the indexed store; snapshot and replay steps replace it,
	// and the concurrent readers follow it through the pointer.
	cur  atomic.Pointer[Store]
	twin *Store

	live    []string // ids present, in no particular order
	deleted []string // some ids no longer present, for cursor anchors
	nextKey int
}

func (p *propRun) indexed() *Collection { return p.cur.Load().Collection(propCol) }
func (p *propRun) plain() *Collection   { return p.twin.Collection(propCol) }

func (p *propRun) pick() (string, bool) {
	if len(p.live) == 0 {
		return "", false
	}
	return p.live[p.rng.Intn(len(p.live))], true
}

func (p *propRun) forget(ids ...string) {
	gone := make(map[string]bool, len(ids))
	for _, id := range ids {
		gone[id] = true
	}
	kept := p.live[:0]
	for _, id := range p.live {
		if !gone[id] {
			kept = append(kept, id)
		}
	}
	p.live = kept
	p.deleted = append(p.deleted, ids...)
	if len(p.deleted) > 40 {
		p.deleted = p.deleted[len(p.deleted)-40:]
	}
}

// newDoc draws a document, with an explicit id half the time and an
// auto-assigned one otherwise.
func (p *propRun) newDoc() Doc {
	d := propDoc(p.rng)
	if p.rng.Intn(2) == 0 {
		p.nextKey++
		d[IDField] = fmt.Sprintf("k%d", p.nextKey)
	}
	return d
}

func (p *propRun) step() {
	t, rng := p.t, p.rng
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	switch r := rng.Intn(100); {
	case r < 28: // Insert; the twin takes the id the indexed side minted
		d := p.newDoc()
		id, err := p.indexed().Insert(d)
		must(err)
		d[IDField] = id
		_, err = p.plain().Insert(d)
		must(err)
		p.live = append(p.live, id)
	case r < 42: // InsertMany (takes ownership: the twin gets clones)
		batch := make([]Doc, 1+rng.Intn(8))
		for i := range batch {
			batch[i] = p.newDoc()
		}
		ids, err := p.indexed().InsertMany(batch)
		must(err)
		clones := make([]Doc, len(batch))
		for i, d := range batch {
			clones[i] = cloneDoc(d)
		}
		_, err = p.plain().InsertMany(clones)
		must(err)
		p.live = append(p.live, ids...)
	case r < 62: // Update, moving the document between indexed values
		if id, ok := p.pick(); ok {
			fields := Doc{}
			for i := 0; i < 1+rng.Intn(2); i++ {
				f := propFields[rng.Intn(len(propFields))]
				fields[f] = propValue(rng, f)
			}
			must(p.indexed().Update(id, fields))
			must(p.plain().Update(id, fields))
		}
	case r < 70: // Unset
		if id, ok := p.pick(); ok {
			f := propFields[rng.Intn(len(propFields))]
			must(p.indexed().Unset(id, f))
			must(p.plain().Unset(id, f))
		}
	case r < 82: // Delete
		if id, ok := p.pick(); ok {
			must(p.indexed().Delete(id))
			must(p.plain().Delete(id))
			p.forget(id)
		}
	case r < 87: // DeleteMany by filter
		filter := propFilter(rng)
		if filter == nil {
			filter = Doc{"b": propValue(rng, "b")}
		}
		ids, err := p.plain().FindIDs(filter)
		must(err)
		n, err := p.indexed().DeleteMany(filter)
		must(err)
		m, err := p.plain().DeleteMany(filter)
		must(err)
		if n != m || n != len(ids) {
			t.Fatalf("DeleteMany(%v) removed %d indexed, %d twin, %d expected", filter, n, m, len(ids))
		}
		p.forget(ids...)
	case r < 89: // delete most of the collection: forces order compaction
		var ids []string
		for _, id := range p.live {
			if rng.Intn(10) < 7 {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			must(p.indexed().Delete(id))
			must(p.plain().Delete(id))
		}
		p.forget(ids...)
	case r < 92: // index a field that already holds documents
		p.indexed().EnsureIndex("b")
	case r < 96: // snapshot save -> load into a fresh store
		var buf bytes.Buffer
		old := p.cur.Load()
		must(old.Snapshot(&buf))
		restored := NewStore()
		must(restored.RestoreExact(&buf))
		old.SetCommitLog(nil)
		AttachWAL(restored, p.w)
		p.cur.Store(restored)
	default: // replay the whole WAL into a fresh store
		p.cur.Load().SetCommitLog(nil)
		must(p.w.Close())
		p.w = openWAL(t, p.dir, wal.Options{Policy: wal.FsyncNone})
		recovered := NewStore()
		_, err := RecoverWAL(recovered, p.w)
		must(err)
		AttachWAL(recovered, p.w)
		p.cur.Store(recovered)
	}
}

func TestIndexedReadsMatchIndexlessTwin(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 100
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := &propRun{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), twin: NewStore()}
			p.w = openWAL(t, p.dir, wal.Options{Policy: wal.FsyncNone})
			defer func() { _ = p.w.Close() }()
			s := NewStore()
			AttachWAL(s, p.w)
			p.cur.Store(s)
			p.indexed().EnsureIndex("a")
			p.indexed().EnsureIndex("c")

			// Concurrent readers on the indexed side, one round of reads
			// per program step so they overlap the next mutation. Their
			// answers are not checked (the program moves under them);
			// they are here for the race detector.
			const readers = 2
			round := make(chan struct{}, readers)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(g)))
					ctx := context.Background()
					anchor := ""
					for range round {
						col := p.indexed()
						filter := propFilter(rng)
						if _, err := col.Find(filter, propFindOptions(rng)); err != nil {
							t.Error(err)
						}
						if _, err := col.CountContext(context.Background(), filter); err != nil {
							t.Error(err)
						}
						docs, err := col.FindAfterContext(ctx, anchor, filter, 5)
						if err != nil && !errors.Is(err, ErrCursorGone) {
							t.Error(err)
						}
						anchor = ""
						if len(docs) > 0 {
							anchor = docs[len(docs)-1][IDField].(string)
						}
					}
				}(g)
			}
			defer func() {
				close(round)
				wg.Wait()
			}()

			for i := 0; i < steps; i++ {
				for g := 0; g < readers; g++ {
					select {
					case round <- struct{}{}:
					default: // a reader is still busy with the last round
					}
				}
				p.step()
				for j := 0; j < 4; j++ {
					var anchors []string
					if id, ok := p.pick(); ok && j == 0 {
						anchors = append(anchors, id)
					}
					if len(p.deleted) > 0 && j == 1 {
						anchors = append(anchors, p.deleted[p.rng.Intn(len(p.deleted))])
					}
					assertReadsAgree(t, p.rng, p.indexed(), p.plain(), propFilter(p.rng), anchors)
				}
			}
		})
	}
}
