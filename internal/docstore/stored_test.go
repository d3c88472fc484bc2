package docstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/wal"
)

// Tests of the stored form (shape.go). The twin test in
// index_prop_test.go holds an indexed collection to an index-less one,
// but both keep their documents packed; here the other side is a model
// that never packs anything.

// refModel is that reference: the documents as plain maps, their ids
// in insertion order, and every read spelled out over the maps, sharing
// nothing with the store above the comparison of two values.
type refModel struct {
	docs  map[string]Doc
	order []string
}

func newRefModel() *refModel { return &refModel{docs: map[string]Doc{}} }

func (m *refModel) insert(id string, d Doc) {
	cp := cloneDoc(d)
	cp[IDField] = id
	m.docs[id] = cp
	m.order = append(m.order, id)
}

func (m *refModel) update(id string, fields Doc) {
	for k, v := range fields {
		if k != IDField {
			m.docs[id][k] = cloneValue(v)
		}
	}
}

func (m *refModel) unset(id string, names ...string) {
	for _, k := range names {
		if k != IDField {
			delete(m.docs[id], k)
		}
	}
}

func (m *refModel) remove(ids ...string) {
	for _, id := range ids {
		delete(m.docs, id)
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return m.docs[id] == nil })
}

// refMatches is the filter language over a map.
func refMatches(filter, d Doc) bool {
	for field, cond := range filter {
		if field == "$or" {
			if !slices.ContainsFunc(cond.([]any), func(b any) bool { return refMatches(b.(map[string]any), d) }) {
				return false
			}
			continue
		}
		v, present := d[field]
		ops, isOps := cond.(map[string]any)
		if !isOps {
			ops = map[string]any{"$eq": cond}
		}
		for op, arg := range ops {
			ordered := present && keyOf(v).rank == keyOf(arg).rank
			var ok bool
			switch op {
			case "$eq":
				ok = present && compareValues(v, arg) == 0
			case "$ne":
				ok = !present || compareValues(v, arg) != 0
			case "$gte":
				ok = ordered && compareValues(v, arg) >= 0
			case "$lt":
				ok = ordered && compareValues(v, arg) < 0
			case "$in":
				ok = present && slices.ContainsFunc(arg.([]any), func(e any) bool { return compareValues(v, e) == 0 })
			case "$exists":
				ok = present == arg.(bool)
			case "$prefix":
				s, isStr := v.(string)
				ok = isStr && strings.HasPrefix(s, arg.(string))
			default:
				panic("refMatches: operator " + op + " is not in the model")
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// matching returns the model's own maps, in insertion order.
func (m *refModel) matching(filter Doc) []Doc {
	out := []Doc{}
	for _, id := range m.order {
		if d := m.docs[id]; refMatches(filter, d) {
			out = append(out, d)
		}
	}
	return out
}

func (m *refModel) ids(filter Doc) []string {
	ids := []string{}
	for _, d := range m.matching(filter) {
		ids = append(ids, d[IDField].(string))
	}
	return ids
}

func (m *refModel) find(filter Doc, opts FindOptions) []Doc {
	hits := m.matching(filter)
	if f := opts.SortField; f != "" {
		sort.SliceStable(hits, func(i, j int) bool {
			c := compareValues(hits[i][f], hits[j][f])
			if opts.SortDesc {
				c = -c
			}
			return c < 0
		})
	}
	hits = hits[min(max(opts.Skip, 0), len(hits)):]
	if opts.Limit > 0 {
		hits = hits[:min(opts.Limit, len(hits))]
	}
	out := []Doc{}
	for _, d := range hits {
		if len(opts.Projection) == 0 {
			out = append(out, cloneDoc(d))
			continue
		}
		p := Doc{IDField: d[IDField]}
		for _, f := range opts.Projection {
			if v, ok := d[f]; ok {
				p[f] = cloneValue(v)
			}
		}
		out = append(out, p)
	}
	return out
}

// after is FindAfterContext for a live anchor (or none).
func (m *refModel) after(anchor string, filter Doc, limit int) []Doc {
	out := []Doc{}
	past := anchor == ""
	for _, id := range m.order {
		if d := m.docs[id]; past && refMatches(filter, d) && (limit <= 0 || len(out) < limit) {
			out = append(out, cloneDoc(d))
		}
		past = past || id == anchor
	}
	return out
}

// storedRun is one seeded program over a collection and its model.
type storedRun struct {
	t   *testing.T
	rng *rand.Rand
	col string
	dir string // the WAL's
	// snapshot is the file a replay of the whole log starts from ("" =
	// from nothing): the legacy fixture's log does not reach back to LSN 1.
	snapshot string
	w        *wal.WAL
	store    *Store
	ref      *refModel
	gone     []string // ids deleted
	nextKey  int
	// shapes is every field set a stored document has been seen with,
	// and the shape it had it under.
	shapes map[string]*shape
	// enum, when set, is a field most new documents and some updates
	// hold a string of enumPool under; overflow closes its table.
	enum     string
	enumPool []string
	// logged, when set, is every payload the store has logged, and
	// check holds the records from checkedLog on, and the snapshot, to
	// the map encoder's bytes for the model's documents.
	logged     *[][]byte
	checkedLog int
}

// teeLog is the WAL's commit log keeping a copy of each payload.
type teeLog struct {
	w        *wal.WAL
	payloads *[][]byte
}

func (l teeLog) Log(m *Mutation) (CommitTicket, error) {
	payload, err := EncodeMutation(m)
	if err != nil {
		return nil, err
	}
	*l.payloads = append(*l.payloads, payload)
	tk, err := l.w.Append(byte(m.Op), payload)
	if err != nil {
		return nil, err
	}
	return tk, nil
}

// attach makes the run's WAL s's commit log.
func (p *storedRun) attach(s *Store) {
	if p.logged == nil {
		AttachWAL(s, p.w)
		return
	}
	s.SetCommitLog(teeLog{p.w, p.logged})
}

func (p *storedRun) c() *Collection { return p.store.Collection(p.col) }

func (p *storedRun) must(err error) {
	p.t.Helper()
	if err != nil {
		p.t.Fatal(err)
	}
}

func (p *storedRun) pick() (string, bool) {
	if len(p.ref.order) == 0 {
		return "", false
	}
	return p.ref.order[p.rng.Intn(len(p.ref.order))], true
}

// newDoc draws a document over the twin test's fields: sometimes with
// an id of its own, sometimes with nested values, sometimes with a
// field no other document has, sometimes nearly empty.
func (p *storedRun) newDoc() Doc {
	d := propDoc(p.rng)
	switch p.rng.Intn(6) {
	case 0:
		d["nested"] = genValue(p.rng, 0)
	case 1:
		d[fmt.Sprintf("own%d", p.rng.Intn(4))] = genValue(p.rng, 1)
	case 2:
		d = Doc{"only": p.rng.Intn(3)}
	}
	if p.enum != "" && p.rng.Intn(8) > 0 {
		d[p.enum] = p.enumPool[p.rng.Intn(len(p.enumPool))]
	}
	if p.rng.Intn(2) == 0 {
		p.nextKey++
		d[IDField] = fmt.Sprintf("k%d", p.nextKey)
	}
	return d
}

// overflow inserts documents holding more distinct new values of the
// enum field than its table has codes left, so that the table closes,
// and adds to the pool values the table coded before it closed, values
// it met as it closed and values it has never met: from then on
// documents of one field set hold the field coded or boxed.
func (p *storedRun) overflow() {
	f := fieldNamed(p.enum)
	if f == nil || f.closed.Load() {
		p.t.Fatalf("field %q has no open table to close", p.enum)
	}
	batch := make([]Doc, maxInternValues)
	for i := range batch {
		batch[i] = Doc{p.enum: fmt.Sprintf("burst-%03d", i), "n": float64(i % 5)}
	}
	copies := make([]Doc, len(batch))
	for i := range batch {
		copies[i] = cloneDoc(batch[i])
	}
	ids, err := p.c().InsertMany(batch)
	p.must(err)
	for i, id := range ids {
		p.ref.insert(id, copies[i])
	}
	if !f.closed.Load() {
		p.t.Fatalf("%d new values left the table of %q open", len(batch), p.enum)
	}
	p.enumPool = append(p.enumPool, "burst-000", fmt.Sprintf("burst-%03d", maxInternValues-1), "late-0", "late-1", "late-2")
}

func (p *storedRun) remove(ids ...string) {
	p.ref.remove(ids...)
	p.gone = append(p.gone, ids...)
}

func (p *storedRun) step() {
	t, rng := p.t, p.rng
	switch r := rng.Intn(100); {
	case r < 20: // Insert reads its argument and leaves it as it was
		d := p.newDoc()
		before := cloneDoc(d)
		id, err := p.c().Insert(d)
		p.must(err)
		if !reflect.DeepEqual(d, before) {
			t.Fatalf("Insert changed its argument:\n got %v\nwant %v", d, before)
		}
		p.ref.insert(id, d)
	case r < 32: // InsertMany takes its documents over: the model gets copies
		batch := make([]Doc, 1+rng.Intn(8))
		copies := make([]Doc, len(batch))
		for i := range batch {
			batch[i] = p.newDoc()
			copies[i] = cloneDoc(batch[i])
		}
		ids, err := p.c().InsertMany(batch)
		p.must(err)
		for i, id := range ids {
			p.ref.insert(id, copies[i])
		}
	case r < 52: // Update: fields the document has, fields it lacks, both at once
		if id, ok := p.pick(); ok {
			fields := Doc{}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				f := propFields[rng.Intn(len(propFields))]
				fields[f] = propValue(rng, f)
			}
			if rng.Intn(3) == 0 {
				fields[fmt.Sprintf("new%d", rng.Intn(3))] = genValue(rng, 0)
			}
			if p.enum != "" && rng.Intn(3) == 0 {
				fields[p.enum] = p.enumPool[rng.Intn(len(p.enumPool))]
			}
			if rng.Intn(10) == 0 {
				fields[IDField] = "ignored"
			}
			p.must(p.c().Update(id, fields))
			p.ref.update(id, fields)
		}
	case r < 64: // Unset: a field it has, one it lacks, one twice, all it has
		if id, ok := p.pick(); ok {
			var names []string
			switch rng.Intn(4) {
			case 0:
				names = []string{"never-set"}
			case 1:
				for k := range p.ref.docs[id] {
					names = append(names, k) // the _id too, which stays
				}
			case 2:
				f := propFields[rng.Intn(len(propFields))]
				names = []string{f, f}
			default:
				names = []string{propFields[rng.Intn(len(propFields))], "never-set"}
			}
			p.must(p.c().Unset(id, names...))
			p.ref.unset(id, names...)
		}
	case r < 74: // Delete
		if id, ok := p.pick(); ok {
			p.must(p.c().Delete(id))
			p.remove(id)
		}
	case r < 79: // DeleteMany
		filter := propFilter(rng)
		if filter == nil {
			filter = Doc{"b": propValue(rng, "b")}
		}
		ids := p.ref.ids(filter)
		n, err := p.c().DeleteMany(filter)
		p.must(err)
		if n != len(ids) {
			t.Fatalf("DeleteMany(%v) removed %d documents, the model %d", filter, n, len(ids))
		}
		p.remove(ids...)
	case r < 82: // delete most of the collection: forces order compaction
		var ids []string
		for _, id := range p.ref.order {
			if rng.Intn(10) < 7 {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			p.must(p.c().Delete(id))
		}
		p.remove(ids...)
	case r < 85:
		p.c().EnsureIndex([]string{"a", "b", "c", "new0"}[rng.Intn(4)])
	case r < 93: // snapshot -> restore into a fresh store
		var buf bytes.Buffer
		p.must(p.store.Snapshot(&buf))
		restored := NewStore()
		p.must(restored.RestoreExact(&buf))
		p.store.SetCommitLog(nil)
		p.attach(restored)
		p.store = restored
	default: // replay the whole log into a fresh store
		p.store.SetCommitLog(nil)
		p.must(p.w.Close())
		p.w = openWAL(t, p.dir, wal.Options{Policy: wal.FsyncNone})
		recovered := NewStore()
		if p.snapshot != "" {
			p.must(recovered.LoadFile(p.snapshot))
		}
		_, err := RecoverWAL(recovered, p.w)
		p.must(err)
		p.attach(recovered)
		p.store = recovered
	}
}

// check holds every read of the collection to the model, and the
// stored documents to the form's invariants.
func (p *storedRun) check() {
	t, rng, c := p.t, p.rng, p.c()
	t.Helper()
	ctx := context.Background()
	equal := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n store %v\n model %v", what, got, want)
		}
	}
	all, err := c.Find(nil, FindOptions{})
	p.must(err)
	equal("every document, in insertion order", all, p.ref.find(nil, FindOptions{}))

	if id, ok := p.pick(); ok {
		d, err := c.Get(id)
		p.must(err)
		equal("Get "+id, d, p.ref.docs[id])
	}
	if len(p.gone) > 0 {
		id := p.gone[rng.Intn(len(p.gone))]
		if _, err := c.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of deleted %s: %v, want ErrNotFound", id, err)
		}
	}
	for i := 0; i < 3; i++ {
		filter := propFilter(rng)
		where := fmt.Sprintf("filter %v: ", filter)
		ids, err := c.FindIDs(filter)
		p.must(err)
		equal(where+"FindIDs", ids, p.ref.ids(filter))
		n, err := c.CountContext(context.Background(), filter)
		p.must(err)
		equal(where+"Count", n, len(ids))
		for j := 0; j < 2; j++ {
			opts := propFindOptions(rng)
			docs, err := c.Find(filter, opts)
			p.must(err)
			equal(where+fmt.Sprintf("Find %+v", opts), docs, p.ref.find(filter, opts))
		}
		// One page from a live anchor, then a cursor walk from the start.
		limit := []int{1, 3, 7, 0}[rng.Intn(4)]
		page := func(anchor string) []Doc {
			t.Helper()
			docs, err := c.FindAfterContext(ctx, anchor, filter, limit)
			p.must(err)
			equal(where+fmt.Sprintf("FindAfter(%q, limit %d)", anchor, limit), docs, p.ref.after(anchor, filter, limit))
			return docs
		}
		if id, ok := p.pick(); ok {
			page(id)
		}
		for docs := page(""); limit > 0 && len(docs) == limit; {
			docs = page(docs[limit-1][IDField].(string))
		}
	}
	if p.enum != "" {
		p.checkEnum()
	}
	if p.logged != nil {
		p.checkBytes()
	}

	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := map[*any]string{}
	for _, e := range c.order {
		if !e.live() {
			continue
		}
		names := e.shape.names
		if len(e.vals) != e.shape.nvals || len(e.words) != e.shape.nwords || !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
			t.Fatalf("document %s: %d values and %d words under names %q", e.id(), len(e.vals), len(e.words), names)
		}
		set := fmt.Sprint(strings.Join(names, "\x00"), e.shape.kinds)
		if sh, seen := p.shapes[set]; seen && sh != e.shape {
			t.Fatalf("document %s: field set %q of kinds %v is held under a second shape", e.id(), names, e.shape.kinds)
		}
		p.shapes[set] = e.shape
		if other, shared := slots[&e.vals[0]]; shared {
			t.Fatalf("documents %s and %s share one value slice", other, e.id())
		}
		slots[&e.vals[0]] = e.id()
	}
}

// checkEnum holds the reads of the enum field to the model for a value
// of the pool drawn at random — coded, boxed, or held by no document:
// equality and its index plan, counts, sorts by the field, ranges,
// prefixes and cursor walks.
func (p *storedRun) checkEnum() {
	t, rng, c := p.t, p.rng, p.c()
	t.Helper()
	ctx := context.Background()
	v := p.enumPool[rng.Intn(len(p.enumPool))]
	filter := Doc{p.enum: v}
	want := p.ref.ids(filter)
	ids, err := c.FindIDs(filter)
	p.must(err)
	n, err := c.CountContext(ctx, filter)
	p.must(err)
	if !slices.Equal(ids, want) || n != len(want) {
		t.Fatalf("%s = %q: FindIDs %v, Count %d; model %v", p.enum, v, ids, n, want)
	}
	// The plan: the index's posting list for v is the documents holding v.
	c.mu.RLock()
	list, indexed := c.indexCandidatesLocked(filter)
	var planned []string
	for _, e := range list {
		if e.live() {
			planned = append(planned, e.id())
		}
	}
	c.mu.RUnlock()
	if !indexed || !slices.Equal(planned, want) {
		t.Fatalf("%s = %q: index plan %v (indexed %v), model %v", p.enum, v, planned, indexed, want)
	}
	other := p.enumPool[rng.Intn(len(p.enumPool))]
	for _, f := range []Doc{
		{p.enum: map[string]any{"$exists": true}},
		{p.enum: map[string]any{"$in": []any{v, other}}},
		{p.enum: map[string]any{"$gte": v}},
		{p.enum: map[string]any{"$prefix": v[:2]}},
	} {
		opts := FindOptions{SortField: p.enum, SortDesc: rng.Intn(2) == 0, Skip: rng.Intn(3), Limit: 20}
		if rng.Intn(2) == 0 {
			opts.Projection = []string{p.enum}
		}
		docs, err := c.Find(f, opts)
		p.must(err)
		if want := p.ref.find(f, opts); !reflect.DeepEqual(docs, want) {
			t.Fatalf("filter %v, Find %+v\n store %v\n model %v", f, opts, docs, want)
		}
	}
	f, anchor := Doc{p.enum: map[string]any{"$in": []any{v, other}}}, ""
	for {
		docs, err := c.FindAfterContext(ctx, anchor, f, 5)
		p.must(err)
		if want := p.ref.after(anchor, f, 5); !reflect.DeepEqual(docs, want) {
			t.Fatalf("filter %v, FindAfter(%q)\n store %v\n model %v", f, anchor, docs, want)
		}
		if len(docs) < 5 {
			break
		}
		anchor = docs[4][IDField].(string)
	}
}

// checkBytes holds what the store writes to the map encoder's and
// encoding/json's bytes for the model's documents: each insert record
// logged since the last check (the other records are written from the
// caller's maps, not from the stored form), the snapshot, and every
// row's AppendJSON.
func (p *storedRun) checkBytes() {
	t := p.t
	t.Helper()
	for _, payload := range (*p.logged)[p.checkedLog:] {
		m, err := decodeMutation(payload, nil)
		p.must(err)
		want := &Mutation{Op: m.Op, Collection: m.Collection, ID: m.ID}
		switch m.Op {
		case OpInsert:
			want.Doc = p.ref.docs[m.ID]
		case OpInsertMany:
			for _, d := range m.Docs {
				want.Docs = append(want.Docs, p.ref.docs[d[IDField].(string)])
			}
		default:
			continue
		}
		enc, err := EncodeMutation(want)
		p.must(err)
		if !bytes.Equal(payload, enc) {
			t.Fatalf("%s record:\n stored form %x\n map encoder %x", m.Op, payload, enc)
		}
	}
	p.checkedLog = len(*p.logged)

	c := p.c()
	if names := p.store.Collections(); slices.Equal(names, []string{p.col}) {
		e := &encoder{dict: make(map[string]uint64)}
		c.mu.RLock()
		e.str(c.name)
		e.uvarint(c.inserted)
		e.uvarint(c.updated)
		e.uvarint(uint64(len(c.indexList)))
		for _, ie := range c.indexList {
			e.str(ie.field)
		}
		c.mu.RUnlock()
		e.uvarint(uint64(len(p.ref.order)))
		for _, id := range p.ref.order {
			p.must(e.doc(p.ref.docs[id]))
		}
		if got, want := snapshotBytes(t, p.store), snapshotFile(e.buf); !bytes.Equal(got, want) {
			t.Fatalf("snapshot:\n stored form %x\n map encoder %x", got, want)
		}
	}

	rows, err := c.FindRowsContext(context.Background(), nil, FindOptions{})
	p.must(err)
	for _, r := range rows {
		id := r.Value(IDField).(string)
		got, err := r.AppendJSON(nil, nil)
		p.must(err)
		want, err := json.Marshal(p.ref.docs[id])
		p.must(err)
		if !bytes.Equal(got, want) {
			t.Fatalf("document %s:\n AppendJSON    %s\n encoding/json %s", id, got, want)
		}
	}
}

// snapshotFile is a snapshot file of the given collection blocks, laid
// out as persist.go documents it.
func snapshotFile(blocks ...[]byte) []byte {
	out := append([]byte(snapshotMagic), codecVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blocks)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(b)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(b, castagnoli))
		out = append(out, b...)
	}
	return out
}

// TestStoredFormMatchesMapModel runs seeded programs of every mutation,
// snapshot restores and whole-log replays against a collection and the
// map model, comparing every kind of read after every step. The last
// program starts from the committed legacy-gob fixture, so its log
// replays are of gob records (maps, packed as they are applied) with a
// binary tail.
func TestStoredFormMatchesMapModel(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 80
	}
	run := func(p *storedRun) {
		defer func() { _ = p.w.Close() }()
		p.check()
		for i := 0; i < steps; i++ {
			if p.enum != "" && i == steps/2 {
				p.overflow()
				p.check()
			}
			p.step()
			p.check()
		}
		if len(p.shapes) < 8 {
			t := p.t
			t.Fatalf("the program met %d field sets: too few to say anything about sharing", len(p.shapes))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			emptyShapeRegistry(t)
			p := &storedRun{t: t, rng: rand.New(rand.NewSource(seed)), col: propCol, dir: t.TempDir(),
				store: NewStore(), ref: newRefModel(), shapes: map[string]*shape{}, logged: new([][]byte)}
			p.w = openWAL(t, p.dir, wal.Options{Policy: wal.FsyncNone})
			p.attach(p.store)
			p.c().EnsureIndex("a")
			run(p)
		})
	}
	// Halfway through, the table of a field every document may hold
	// closes: before, its values are coded; after, documents of one
	// field set hold it coded or boxed, and every read, index plan and
	// byte written must not tell the two apart. The test starts from
	// empty intern tables, so the field's table is open whatever ran
	// before it in the process.
	t.Run("table-closes", func(t *testing.T) {
		emptyInternTables(t)
		p := &storedRun{t: t, rng: rand.New(rand.NewSource(5)), col: propCol, dir: t.TempDir(),
			store: NewStore(), ref: newRefModel(), shapes: map[string]*shape{}, logged: new([][]byte),
			enum: "e", enumPool: []string{"e0", "e1", "e2", "e3", "e4"}}
		p.w = openWAL(t, p.dir, wal.Options{Policy: wal.FsyncNone})
		p.attach(p.store)
		p.c().EnsureIndex("a")
		p.c().EnsureIndex(p.enum)
		run(p)
		held := map[string]map[kind]bool{}
		for _, sh := range p.shapes {
			if i := sh.index(p.enum); i >= 0 {
				names := strings.Join(sh.names, "\x00")
				if held[names] == nil {
					held[names] = map[kind]bool{}
				}
				held[names][sh.kinds[i]] = true
			}
		}
		both := false
		for _, kinds := range held {
			both = both || kinds[kindCode] && kinds[kindAny]
		}
		if !both {
			t.Fatalf("no field set held %q both coded and boxed: %v", p.enum, held)
		}
	})
	t.Run("legacy-gob", func(t *testing.T) {
		emptyShapeRegistry(t)
		// gob restores a time in the machine's zone when the offsets
		// agree; the model's are parsed into fixed zones.
		defer func(l *time.Location) { time.Local = l }(time.Local)
		time.Local = time.UTC
		const fixture = "testdata/legacy-gob"
		dir := t.TempDir()
		files, err := filepath.Glob(filepath.Join(fixture, "data", "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("fixture data: %v, %v", files, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p := &storedRun{t: t, rng: rand.New(rand.NewSource(99)), col: "observations", dir: dir,
			snapshot: filepath.Join(dir, "snapshot.gob"), store: NewStore(), ref: newRefModel(), shapes: map[string]*shape{}}
		p.must(p.store.LoadFile(p.snapshot))
		p.w = openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
		_, err = RecoverWAL(p.store, p.w)
		p.must(err)
		if fs := p.store.FormatStats(); fs.DecodedGob == 0 || fs.RestoredGob != 1 || fs.DecodedBin != 0 {
			t.Fatalf("the fixture was read as %+v, want a gob snapshot and gob records only", fs)
		}
		AttachWAL(p.store, p.w)
		// The model starts from the fixture's own account of the store.
		golden, err := os.ReadFile(filepath.Join(fixture, "golden.json"))
		p.must(err)
		var cols []struct {
			Name string
			Docs []map[string]any
		}
		p.must(json.Unmarshal(golden, &cols))
		for _, col := range cols {
			for _, d := range col.Docs {
				if col.Name == p.col {
					d = untyped(t, d).(map[string]any)
					p.ref.insert(d[IDField].(string), d)
				}
			}
		}
		if len(p.ref.order) == 0 {
			t.Fatal("golden.json lists no document of " + p.col)
		}
		// One value the golden dump cannot describe: gob reads an empty
		// []byte back as nil, the codec as empty, and "bytes:" is either.
		p.must(p.c().Unset("kinds", "empty-bytes"))
		p.ref.unset("kinds", "empty-bytes")
		run(p)
	})
}

// TestRecoveryAcrossTableBoundaries: a log written where a field's
// table closed at one value is replayed where it closes at another —
// codes belong to the process and are never written — and the
// recovered store answers exactly as the store that wrote the log,
// bytes included, though it holds other documents' values coded.
func TestRecoveryAcrossTableBoundaries(t *testing.T) {
	emptyInternTables(t)
	ctx := context.Background()
	dir := t.TempDir()
	w := openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
	src := NewStore()
	AttachWAL(src, w)
	c := src.Collection("obs")
	c.EnsureIndex("zone")
	// 300 zones the writer meets one by one (its table closes at the
	// 257th), then 100 documents back in zones it met before and after.
	const n = 400
	zone := func(i int) string {
		if i < 300 {
			return fmt.Sprintf("z%03d", i)
		}
		return fmt.Sprintf("z%03d", (i-300)*3)
	}
	var batch []Doc
	for i := 0; i < n; i++ {
		d := Doc{IDField: fmt.Sprintf("d%03d", i), "zone": zone(i), "spl": float64(40 + i%50), "mode": []string{"walk", "ride"}[i%2]}
		if i%3 == 0 {
			if _, err := c.Insert(d); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if batch = append(batch, d); len(batch) == 7 || i == n-1 {
			if _, err := c.InsertMany(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if err := c.Update("d010", Doc{"zone": "z299", "note": "moved"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unset("d011", "mode"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A process of its own: fresh tables, the zone table holding a
	// hundred other values first, so it closes after z155.
	internFields.m.Store(nil)
	shapes.m.Store(nil)
	zf := fieldNamed("zone")
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("elsewhere-%d", i)
		zf.code(s, s)
	}
	dst := NewStore()
	w = openWAL(t, dir, wal.Options{Policy: wal.FsyncNone})
	defer w.Close()
	if _, err := RecoverWAL(dst, w); err != nil {
		t.Fatal(err)
	}
	r := dst.Collection("obs")

	kindOfZone := func(c *Collection, id string) kind {
		rows, err := c.FindRowsContext(ctx, Doc{IDField: id}, FindOptions{})
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: %d rows, %v", id, len(rows), err)
		}
		sh := rows[0].p.shape
		return sh.kinds[sh.index("zone")]
	}
	if kindOfZone(c, "d200") != kindCode || kindOfZone(r, "d200") != kindAny || kindOfZone(c, "d100") != kindCode || kindOfZone(r, "d100") != kindCode {
		t.Fatal("the two stores do not hold the zones of d100 and d200 as the tables' bounds say")
	}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\n recovered %v\n written   %v", what, got, want)
		}
	}
	for _, f := range []Doc{nil, {"zone": "z000"}, {"zone": "z150"}, {"zone": "z200"}, {"zone": "z299"}, {"zone": "z999"},
		{"zone": map[string]any{"$in": []any{"z120", "z270"}}}, {"zone": map[string]any{"$gte": "z155"}, "mode": "ride"}} {
		for _, opts := range []FindOptions{{}, {SortField: "zone", SortDesc: true, Skip: 3, Limit: 50}, {SortField: "zone", Projection: []string{"zone"}}} {
			got, err := r.Find(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Find(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("Find(%v, %+v)", f, opts), got, want)
		}
		got, _ := r.CountContext(ctx, f)
		want, _ := c.CountContext(ctx, f)
		same(fmt.Sprintf("Count(%v)", f), got, want)
		for anchor := ""; ; {
			got, err := r.FindAfterContext(ctx, anchor, f, 30)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := c.FindAfterContext(ctx, anchor, f, 30)
			same(fmt.Sprintf("FindAfter(%q, %v)", anchor, f), got, want)
			if len(got) < 30 {
				break
			}
			anchor = got[29][IDField].(string)
		}
	}
	gotRows, _ := r.FindRowsContext(ctx, nil, FindOptions{})
	wantRows, _ := c.FindRowsContext(ctx, nil, FindOptions{})
	if len(gotRows) != n || len(wantRows) != n {
		t.Fatalf("%d recovered rows, %d written, want %d", len(gotRows), len(wantRows), n)
	}
	for i := range gotRows {
		got, err := gotRows[i].AppendJSON(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := wantRows[i].AppendJSON(nil, nil)
		same("row", string(got), string(want))
	}
	if !bytes.Equal(snapshotBytes(t, dst), snapshotBytes(t, src)) {
		t.Fatal("the recovered store snapshots to other bytes than the store that wrote the log")
	}
}

// TestStoredFormConcurrentCoding (for -race): writers store documents
// whose values their field's table meets for the first time — more
// than it has codes, so it closes midway — some inserted live, some
// decoded from records by stores recovering side by side, while readers
// resolve the code or box of every document they find.
func TestStoredFormConcurrentCoding(t *testing.T) {
	emptyInternTables(t)
	ctx := context.Background()
	const writers, per = 4, 120
	value := func(id string) string { return "v-" + id }
	doc := func(g, i int) Doc {
		id := fmt.Sprintf("w%d-%03d", g, i)
		return Doc{IDField: id, "v": value(id), "g": g}
	}
	// Writers 0 and 1 insert into live; 2 and 3 apply records to a
	// store each.
	liveStore := NewStore()
	live := liveStore.Collection("coding")
	live.EnsureIndex("v")
	applied := []*Store{NewStore(), NewStore()}
	var payloads [writers][][]byte
	for g := 2; g < writers; g++ {
		for i := 0; i < per; i++ {
			d := doc(g, i)
			p, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "coding", ID: d[IDField].(string), Doc: d})
			if err != nil {
				t.Fatal(err)
			}
			payloads[g] = append(payloads[g], p)
		}
	}
	read := func(c *Collection) bool {
		rows, err := c.FindRowsContext(ctx, nil, FindOptions{})
		if err != nil {
			t.Error(err)
			return false
		}
		for _, row := range rows {
			id, _ := row.Value(IDField).(string)
			want := value(id)
			out, err := row.AppendJSON(nil, nil)
			if got := row.Value("v"); got != want || err != nil || !bytes.Contains(out, []byte(`"v":"`+want+`"`)) {
				t.Errorf("document %s reads v = %v, writes %s (%v)", id, got, out, err)
				return false
			}
		}
		if len(rows) > 0 {
			id := rows[len(rows)-1].Value(IDField).(string)
			if ids, err := c.FindIDs(Doc{"v": value(id)}); err != nil || !slices.Equal(ids, []string{id}) {
				t.Errorf("documents of %s's value: %v, %v", id, ids, err)
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	var rg, wg sync.WaitGroup
	for _, c := range []*Collection{live, applied[0].Collection("coding"), applied[1].Collection("coding")} {
		rg.Add(1)
		go func(c *Collection) {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !read(c) {
					return
				}
			}
		}(c)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var err error
				switch {
				case g >= 2:
					err = applied[g-2].ApplyRecord(uint64(i+1), byte(OpInsert), payloads[g][i])
				case i%2 == 0:
					_, err = live.Insert(doc(g, i))
				default:
					_, err = live.InsertMany([]Doc{doc(g, i)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if f := fieldNamed("v"); f == nil || !f.closed.Load() {
		t.Fatal("the table of v did not close")
	}
	held := map[kind]int{}
	for _, s := range append(applied, liveStore) {
		c := s.Collection("coding")
		if !read(c) {
			return
		}
		c.mu.RLock()
		for _, e := range c.order {
			held[e.shape.kinds[e.shape.index("v")]]++
		}
		c.mu.RUnlock()
	}
	if held[kindCode] != maxInternValues || held[kindAny] != writers*per-maxInternValues {
		t.Fatalf("v held as %v, want %d coded and the rest boxed", held, maxInternValues)
	}
}

// untyped is the inverse of the fixture's typed dump ("int64:7").
func untyped(t *testing.T, v any) any {
	t.Helper()
	switch tv := v.(type) {
	case map[string]any:
		for k, e := range tv {
			tv[k] = untyped(t, e)
		}
	case []any:
		for i, e := range tv {
			tv[i] = untyped(t, e)
		}
	case string:
		kind, val, _ := strings.Cut(tv, ":")
		var out any
		var err error
		switch kind {
		case "nil":
		case "bool":
			out, err = strconv.ParseBool(val)
		case "int":
			out, err = strconv.Atoi(val)
		case "int64":
			out, err = strconv.ParseInt(val, 10, 64)
		case "float64":
			out, err = strconv.ParseFloat(val, 64)
		case "string":
			out = val
		case "bytes":
			out, err = hex.DecodeString(val)
		case "time":
			var at time.Time
			if at, err = time.Parse(time.RFC3339Nano, val); err == nil {
				if _, off := at.Zone(); off == 0 {
					out = at.UTC()
				} else {
					out = at.In(time.FixedZone("", off))
				}
			}
		default:
			err = errors.New("unknown kind")
		}
		if err != nil {
			t.Fatalf("golden value %q: %v", tv, err)
		}
		return out
	}
	return v
}

// TestStoredFormAliasing: nothing a caller holds — the map it passed
// to Insert, a value it passed to Update, a document any read returned
// — reaches into the store, at the top level or below it.
func TestStoredFormAliasing(t *testing.T) {
	fresh := func() Doc {
		return Doc{"zone": "z1", "n": 1.0, "loc": map[string]any{"lat": 48.85, "tags": []any{"a", "b"}}, "list": []any{map[string]any{"k": "v"}, 2.0}}
	}
	// scribble overwrites everything reachable from d.
	var scribble func(v any)
	scribble = func(v any) {
		switch tv := v.(type) {
		case map[string]any:
			for k, e := range tv {
				scribble(e)
				tv[k] = "scribbled"
			}
			tv["added"] = true
		case []any:
			for i, e := range tv {
				scribble(e)
				tv[i] = "scribbled"
			}
		}
	}
	c := NewStore().Collection("c")
	c.EnsureIndex("zone")
	want := fresh()
	want[IDField] = "d"
	assertStored := func(after string) {
		t.Helper()
		got, err := c.Get("d")
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s the store holds\n %v (%v)\nwant\n %v", after, got, err, want)
		}
	}

	in := fresh()
	in[IDField] = "d"
	if _, err := c.Insert(in); err != nil {
		t.Fatal(err)
	}
	scribble(in)
	assertStored("scribbling over the map passed to Insert")

	reads := map[string]func() (Doc, error){
		"Get":     func() (Doc, error) { return c.Get("d") },
		"FindOne": func() (Doc, error) { return c.findOne(Doc{"zone": "z1"}) },
		"Find": func() (Doc, error) {
			docs, err := c.Find(Doc{"zone": "z1"}, FindOptions{SortField: "n"})
			return docs[0], err
		},
		"Find with a projection": func() (Doc, error) {
			docs, err := c.Find(nil, FindOptions{Projection: []string{"loc", "list"}})
			return docs[0], err
		},
		"FindAfter": func() (Doc, error) {
			docs, err := c.FindAfterContext(context.Background(), "", nil, 1)
			return docs[0], err
		},
	}
	for name, read := range reads {
		d, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scribble(d)
		assertStored("scribbling over the document " + name + " returned")
	}

	fields := Doc{"loc": map[string]any{"lat": 1.0, "path": []any{map[string]any{"x": 1.0}}}, "extra": []any{"e"}}
	if err := c.Update("d", fields); err != nil {
		t.Fatal(err)
	}
	want["loc"], want["extra"] = cloneValue(fields["loc"]), cloneValue(fields["extra"])
	scribble(fields)
	assertStored("scribbling over the fields passed to Update")

	// InsertMany is the documented exception on the way in — it takes
	// the documents over, assigning ids in place — and no exception on
	// the way out.
	handed := []Doc{fresh(), fresh()}
	ids, err := c.InsertMany(handed)
	if err != nil || len(ids) != 2 || handed[0][IDField] != ids[0] || handed[1][IDField] != ids[1] {
		t.Fatalf("InsertMany = %v, %v; documents now %v", ids, err, handed)
	}
	got, err := c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	scribble(got)
	if again, _ := c.Get(ids[0]); !reflect.DeepEqual(again, handed[0]) || reflect.DeepEqual(again, got) {
		t.Fatalf("scribbling over a document read back changed the one InsertMany stored: %v", again)
	}

	// A row is the stored form itself, so for rows the promise runs the
	// other way: nothing the store does to a document afterwards reaches
	// a row a reader holds, at the top level or below it.
	t.Run("a held row outlives writes", func(t *testing.T) {
		ctx := context.Background()
		c := NewStore().Collection("rows")
		c.EnsureIndex("zone")
		in := fresh()
		in[IDField] = "d"
		if _, err := c.Insert(in); err != nil {
			t.Fatal(err)
		}
		found, err := c.FindRowsContext(ctx, Doc{"zone": "z1"}, FindOptions{SortField: "n"})
		if err != nil || len(found) != 1 {
			t.Fatalf("FindRowsContext = %d rows, %v", len(found), err)
		}
		after, err := c.FindRowsAfterContext(ctx, "", nil, 1)
		if err != nil || len(after) != 1 {
			t.Fatalf("FindRowsAfterContext = %d rows, %v", len(after), err)
		}
		want := found[0].Doc(nil)
		wantJSON, err := found[0].AppendJSON(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		writes := []struct {
			name string
			do   func() error
		}{
			{"an Update of a field it has", func() error { return c.Update("d", Doc{"n": 2.0, "zone": "z2"}) }},
			{"an Update replacing its nested values", func() error {
				return c.Update("d", Doc{"loc": map[string]any{"lat": 0.0}, "list": []any{"other"}})
			}},
			{"an Update adding a field", func() error { return c.Update("d", Doc{"extra": []any{"e"}}) }},
			{"an Unset", func() error { return c.Unset("d", "loc", "n") }},
			{"a Delete", func() error { return c.Delete("d") }},
		}
		for _, w := range writes {
			if err := w.do(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for _, held := range []Row{found[0], after[0]} {
				got, err := held.AppendJSON(nil, nil)
				if err != nil || !bytes.Equal(got, wantJSON) || !reflect.DeepEqual(held.Doc(nil), want) {
					t.Fatalf("after %s the held row reads\n %s (%v)\nwant\n %s", w.name, got, err, wantJSON)
				}
			}
		}
		if _, err := c.Get("d"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("the writes did not reach the store: %v", err)
		}
	})

	// The same under -race: readers encode rows they hold, and rows they
	// have just read, while a writer updates, narrows, widens and finally
	// deletes the very documents.
	t.Run("rows encoded while their documents change", func(t *testing.T) {
		ctx := context.Background()
		c := NewStore().Collection("rows")
		const docs = 32
		for i := 0; i < docs; i++ {
			d := fresh()
			d[IDField], d["n"] = fmt.Sprintf("d%02d", i), float64(i)
			if _, err := c.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		held, err := c.FindRowsContext(ctx, nil, FindOptions{})
		if err != nil || len(held) != docs {
			t.Fatalf("FindRowsContext = %d rows, %v", len(held), err)
		}
		want := make([][]byte, docs)
		for i, r := range held {
			if want[i], err = r.AppendJSON(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for {
					select {
					case <-done:
						return
					default:
					}
					for i, r := range held {
						var err error
						if buf, err = r.AppendJSON(buf[:0], nil); err != nil || !bytes.Equal(buf, want[i]) {
							t.Errorf("held row %d now reads %s (%v), want %s", i, buf, err, want[i])
							return
						}
					}
					now, err := c.FindRowsContext(ctx, nil, FindOptions{SortField: "n", Limit: 8})
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range now {
						if buf, err = r.AppendJSON(buf[:0], nil); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		defer func() {
			close(done)
			wg.Wait()
		}()
		rounds := 300
		if testing.Short() {
			rounds = 100
		}
		for i := 0; i < rounds; i++ {
			id, n := fmt.Sprintf("d%02d", i%docs), float64(-i)
			var err error
			switch i % 3 {
			case 0:
				err = c.Update(id, Doc{"n": n, "loc": map[string]any{"lat": n, "tags": []any{n}}})
			case 1:
				err = c.Unset(id, "list")
			default:
				err = c.Update(id, Doc{"list": []any{map[string]any{"k": n}}, "zone": "moved"})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n, err := c.DeleteMany(nil); err != nil || n != docs {
			t.Fatalf("DeleteMany = %d, %v", n, err)
		}
	})
}

// TestStoredFormConcurrentShapeTransitions (for -race): readers page,
// sort and count while a writer moves documents between shapes. Every
// update sets the pair (k, twin), and extra with them when present, to
// one number, so a reader that saw half an update can tell.
func TestStoredFormConcurrentShapeTransitions(t *testing.T) {
	c := NewStore().Collection("c")
	c.EnsureIndex("zone")
	const docs = 64
	ids := make([]string, docs)
	for i := range ids {
		id, err := c.Insert(Doc{"zone": fmt.Sprintf("z%d", i%4), "k": 0.0, "twin": 0.0})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			whole := func(d Doc) {
				if x, has := d["extra"]; d["k"] != d["twin"] || (has && x != d["k"]) {
					t.Errorf("torn document: %v", d)
				}
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				filter := Doc{"zone": fmt.Sprintf("z%d", (g+i)%4)}
				page, err := c.Find(filter, FindOptions{SortField: "k", Limit: 10})
				if err != nil {
					t.Error(err)
				}
				for _, d := range page {
					whole(d)
				}
				if n, err := c.CountContext(context.Background(), Doc{"zone": filter["zone"], "extra": map[string]any{"$exists": true}}); err != nil || n > docs {
					t.Errorf("count = %d, %v", n, err)
				}
				for anchor := ""; ; {
					page, err := c.FindAfterContext(ctx, anchor, filter, 5)
					if err != nil {
						t.Error(err)
					}
					if len(page) == 0 {
						break
					}
					for _, d := range page {
						whole(d)
					}
					anchor = page[len(page)-1][IDField].(string)
				}
			}
		}(g)
	}
	for i := 1; i <= rounds; i++ {
		id, n := ids[i%docs], float64(i)
		var err error
		// A document is visited every 64 rounds, so it meets the three
		// cases in turn.
		switch i % 3 {
		case 0: // gains a field and moves to the wider shape, then is written in place there
			if err = c.Update(id, Doc{"k": n, "twin": n, "extra": n}); err == nil {
				err = c.Update(id, Doc{"k": -n, "twin": -n, "extra": -n})
			}
		case 1: // loses the field again, or never had it
			err = c.Unset(id, "extra", "never-set")
		default: // written in place in the narrow shape
			err = c.Update(id, Doc{"k": n, "twin": n})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// emptyInternTables gives the test empty intern tables and an empty
// shape registry, and puts the process's back when it ends. A test that
// must reach a field's coded values, or close its table, on purpose
// does so whatever earlier tests left in the process's tables.
func emptyInternTables(t testing.TB) {
	emptyShapeRegistry(t)
	saved := internFields.m.Load()
	internFields.m.Store(nil)
	t.Cleanup(func() { internFields.m.Store(saved) })
}

// emptyShapeRegistry gives the test an empty shape registry and puts
// the process's back when it ends. The registry is process-wide and
// bounded, and the property tests fill it with the shapes of the
// kinds they draw: a test that needs room in it, or that every field
// set it meets be registered, starts from none.
func emptyShapeRegistry(t testing.TB) {
	saved := shapes.m.Load()
	shapes.m.Store(nil)
	t.Cleanup(func() { shapes.m.Store(saved) })
}

// TestShapeRegistryIsBounded: documents with pairwise-distinct field
// names — the workload that defeats shape sharing — fill the registry
// to its constant and no further, and are stored, found, snapshotted
// and restored like any others; so is a document whose names alone
// exceed what the registry will key.
func TestShapeRegistryIsBounded(t *testing.T) {
	emptyShapeRegistry(t)
	savedFields := internFields.m.Load()
	t.Cleanup(func() { internFields.m.Store(savedFields) })
	const n = 10_000
	s := NewStore()
	c := s.Collection("wide")
	c.EnsureIndex("zone")
	for i := 0; i < n; i++ {
		d := Doc{IDField: fmt.Sprintf("w%d", i), "zone": fmt.Sprintf("z%d", i%7), fmt.Sprintf("field-%d", i): float64(i)}
		if i%2 == 0 {
			if _, err := c.Insert(d); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.InsertMany([]Doc{d}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ShapeCount(); got != maxShapes {
		t.Fatalf("%d documents of distinct field sets registered %d shapes, want the bound %d", n, got, maxShapes)
	}
	long := strings.Repeat("x", maxShapeKey+1)
	if _, err := c.Insert(Doc{IDField: "long", long: true}); err != nil {
		t.Fatal(err)
	}
	check := func(c *Collection) {
		t.Helper()
		for _, i := range []int{0, 1, maxShapes - 1, maxShapes, maxShapes + 1, n - 1} {
			want := Doc{IDField: fmt.Sprintf("w%d", i), "zone": fmt.Sprintf("z%d", i%7), fmt.Sprintf("field-%d", i): float64(i)}
			if got, err := c.Get(want[IDField].(string)); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("document %d = %v, %v; want %v", i, got, err, want)
			}
			field := fmt.Sprintf("field-%d", i)
			if ids, err := c.FindIDs(Doc{"zone": want["zone"], field: map[string]any{"$exists": true}}); err != nil || !reflect.DeepEqual(ids, []string{want[IDField].(string)}) {
				t.Fatalf("documents with %s = %v, %v", field, ids, err)
			}
		}
		if got, err := c.Get("long"); err != nil || !reflect.DeepEqual(got, Doc{IDField: "long", long: true}) {
			t.Fatalf("the document with the long field name = %v, %v", got, err)
		}
		if cnt, err := c.CountContext(context.Background(), Doc{"zone": "z3"}); err != nil || cnt != (n+3)/7 {
			t.Fatalf("count of z3 = %d, %v; want %d", cnt, err, (n+3)/7)
		}
	}
	check(c)
	// A row of a shape the registry took is written out from the keys
	// cached on the shape, one past the bound from none — as the same
	// bytes (see TestRowAppendJSONMatchesEncodingJSON).
	for id, registered := range map[string]bool{"w0": true, fmt.Sprintf("w%d", n-1): false, "long": false} {
		rows, err := c.FindRowsContext(context.Background(), Doc{IDField: id}, FindOptions{})
		if err != nil || len(rows) != 1 {
			t.Fatalf("row %s: %d rows, %v", id, len(rows), err)
		}
		if cached := rows[0].p.shape.quoted != nil; cached != registered {
			t.Fatalf("row %s: keys cached = %v, shape registered = %v", id, cached, registered)
		}
		assertRowEncodesLikeEncodingJSON(t, rows[0])
	}
	// Past the bound an update still finds its way between shapes.
	last := fmt.Sprintf("w%d", n-1)
	if err := c.Update(last, Doc{"more": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unset(last, "more"); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(bytes.NewReader(snapshotBytes(t, s))); err != nil {
		t.Fatal(err)
	}
	check(restored.Collection("wide"))
	if got := ShapeCount(); got != maxShapes {
		t.Fatalf("the registry grew to %d shapes past its bound", got)
	}
}

// TestShapesInternedOnceUnderConcurrency (for -race): goroutines that
// meet the same new field sets at the same time — shards recovering
// side by side — come away with one shape per set.
func TestShapesInternedOnceUnderConcurrency(t *testing.T) {
	emptyShapeRegistry(t)
	const workers, sets = 8, 40
	got := make([][]*shape, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc shapeCache
			for i := 0; i < sets; i++ {
				got[g] = append(got[g], sc.find([]string{IDField, fmt.Sprintf("once-%d", i), "zone"}, make([]kind, 3)))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, sh := range got[g] {
			if sh != got[0][i] {
				t.Fatalf("worker %d holds its own shape for field set %d", g, i)
			}
		}
	}
}

// recordingLog is a commit log that keeps each payload as the store's
// own mutations encode.
type recordingLog struct{ payloads *[][]byte }

func (l recordingLog) Log(m *Mutation) (CommitTicket, error) {
	p, err := EncodeMutation(m)
	*l.payloads = append(*l.payloads, p)
	return nopTicket{}, err
}

// TestStoredFormEncodesCanonically: the store encodes its records and
// its snapshots from the stored form, and they are byte for byte what
// the map encoder — EncodeMutation over Doc, encoder.doc — writes for
// the same documents. The format did not move, so its version did not.
func TestStoredFormEncodesCanonically(t *testing.T) {
	paris := time.FixedZone("", 2*3600)
	docs := []Doc{
		kindsDoc(),
		{"zone": "FR75101", "spl": 61.5, "sensedAt": time.Date(2016, 6, 21, 18, 30, 15, 5, paris), "localized": false},
		{"zone": "FR75101", "spl": 48.0, "sensedAt": time.Date(2016, 6, 21, 18, 31, 0, 0, time.UTC), "localized": true,
			"loc": map[string]any{"lon": 2.35, "lat": 48.85, "tags": []any{"a", 1, nil}}},
		{"zone": "FR75102", "spl": 70.0, "sensedAt": time.Date(2016, 6, 21, 18, 32, 0, 0, paris), "localized": false},
		{},
	}
	for i, d := range docs {
		d[IDField] = fmt.Sprintf("doc-%d", i)
	}
	update := Doc{"zone": "FR75103", "note": map[string]any{"b": 1, "a": []any{}}}
	var logged [][]byte
	s := NewStore()
	s.SetCommitLog(recordingLog{&logged})
	c := s.Collection("obs")
	c.EnsureIndex("zone")
	if _, err := c.Insert(docs[0]); err != nil {
		t.Fatal(err)
	}
	batch := []Doc{cloneDoc(docs[1]), cloneDoc(docs[2]), cloneDoc(docs[3])}
	if _, err := c.InsertMany(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(docs[4]); err != nil {
		t.Fatal(err)
	}
	if err := c.Update("doc-1", update); err != nil {
		t.Fatal(err)
	}
	if err := c.Unset("doc-2", "loc", "never-set"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("doc-3"); err != nil {
		t.Fatal(err)
	}

	golden := []*Mutation{
		{Op: OpEnsureIndex, Collection: "obs", Names: []string{"zone"}},
		{Op: OpInsert, Collection: "obs", ID: "doc-0", Doc: docs[0]},
		{Op: OpInsertMany, Collection: "obs", Docs: docs[1:4]},
		{Op: OpInsert, Collection: "obs", ID: "doc-4", Doc: docs[4]},
		{Op: OpUpdate, Collection: "obs", ID: "doc-1", Fields: update},
		{Op: OpUnset, Collection: "obs", ID: "doc-2", Names: []string{"loc", "never-set"}},
		{Op: OpDelete, Collection: "obs", ID: "doc-3"},
	}
	if len(logged) != len(golden) {
		t.Fatalf("the store logged %d records, want %d", len(logged), len(golden))
	}
	for i, m := range golden {
		want, err := EncodeMutation(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logged[i], want) {
			t.Errorf("record %d (%s):\n stored form %x\n map encoder %x", i, m.Op, logged[i], want)
		}
	}

	// The snapshot the map encoder would write of what the store now
	// holds, laid out as persist.go documents the file.
	after := []Doc{docs[0], cloneDoc(docs[1]), cloneDoc(docs[2]), docs[4]}
	after[1]["zone"], after[1]["note"] = update["zone"], update["note"]
	delete(after[2], "loc")
	e := &encoder{dict: make(map[string]uint64)}
	e.str("obs")
	e.uvarint(5) // inserted
	e.uvarint(2) // updated
	e.uvarint(1)
	e.str("zone")
	e.uvarint(uint64(len(after)))
	for _, d := range after {
		if err := e.doc(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := snapshotBytes(t, s), snapshotFile(e.buf); !bytes.Equal(got, want) {
		t.Errorf("snapshot:\n stored form %x\n map encoder %x", got, want)
	}
}
