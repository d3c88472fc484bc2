// Package docstore implements the storage substrate of the GoFlow
// server: an in-process, concurrency-safe document store in the spirit
// of MongoDB. It stores JSON-like documents in named collections and
// supports filter queries with comparison operators, sorting,
// pagination, projections, secondary equality indexes and atomic
// updates.
package docstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Doc is a JSON-like document. Values should be JSON-compatible:
// string, float64/int, bool, nil, []any, Doc/map[string]any,
// time.Time.
type Doc = map[string]any

// Errors callers may match with errors.Is.
var (
	ErrNotFound    = errors.New("docstore: document not found")
	ErrNoID        = errors.New("docstore: document has no _id")
	ErrDuplicateID = errors.New("docstore: duplicate _id")
)

// IDField is the reserved primary-key field.
const IDField = "_id"

// Store is a set of named collections.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection

	// metrics is shared with every collection; see Instrument.
	metrics atomic.Pointer[storeMetrics]

	// commitLog is shared with every collection; see SetCommitLog.
	commitLog atomic.Pointer[commitLogBox]

	// ingestObs is shared with every collection; see
	// SetIngestObserver.
	ingestObs atomic.Pointer[ingestObsBox]

	// decoded and restored count applied records and restored
	// snapshots by payloadFormat; see FormatStats.
	decoded, restored [formatBin + 1]atomic.Uint64

	// applyShapes finds the shapes of the documents ApplyRecord decodes.
	applyShapes shapeCache
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns the named collection, creating it if absent.
func (s *Store) Collection(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c := newCollection(name, s)
	s.collections[name] = c
	return c
}

// Collections lists collection names sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collection holds documents keyed by _id plus optional secondary
// equality indexes.
type Collection struct {
	name string

	mu   sync.RWMutex
	docs map[string]*entry
	// order is every entry in insertion order (ascending seq), for
	// stable scans; deleted entries stay as tombstones (see entry.live)
	// until half the slots are dead.
	order   []*entry
	nextSeq uint64
	// shapes finds the stored form's shape for documents that arrive as
	// maps; see shape.go.
	shapes  shapeCache
	indexes map[string]*index
	// indexList mirrors indexes as a slice so the insert/delete hot
	// paths and the read planner iterate without ranging a map.
	indexList []indexEntry

	inserted uint64
	updated  uint64
	deleted  uint64 // tombstones in order since the last compaction

	// metrics, commitLog and ingestObs alias the owning store's slots
	// so Instrument, SetCommitLog and SetIngestObserver apply to all
	// collections atomically.
	metrics   *atomic.Pointer[storeMetrics]
	commitLog *atomic.Pointer[commitLogBox]
	ingestObs *atomic.Pointer[ingestObsBox]
}

// indexEntry pairs an indexed field with its index for slice
// iteration.
type indexEntry struct {
	field string
	idx   *index
}

func newCollection(name string, s *Store) *Collection {
	return &Collection{
		name:      name,
		docs:      make(map[string]*entry),
		indexes:   make(map[string]*index),
		metrics:   &s.metrics,
		commitLog: &s.commitLog,
		ingestObs: &s.ingestObs,
	}
}

var _idCounter atomic.Uint64

// nextID mints a collection-agnostic unique id in one allocation.
func nextID() string {
	var buf [20]byte
	buf[0] = 'd'
	return string(strconv.AppendUint(buf[:1], _idCounter.Add(1), 36))
}

// Insert stores a copy of doc. When doc carries no _id one is
// assigned (to the copy: doc is only read); the id is returned.
// Inserting an existing _id fails with ErrDuplicateID. With a commit
// log attached the insert is durable when Insert returns nil (see
// SetCommitLog for the failure semantics).
func (c *Collection) Insert(doc Doc) (string, error) {
	if m := c.metrics.Load(); m != nil {
		defer m.observe(c.name, "insert", time.Now())
	}
	id, _ := doc[IDField].(string)
	if id == "" {
		id = nextID()
	}
	// Packed before it is logged: the record is encoded from the stored
	// form, whose fields are already in the codec's order.
	stored := []packed{c.shapes.pack(doc, id, true)}
	c.mu.Lock()
	if _, exists := c.docs[id]; exists {
		c.mu.Unlock()
		return "", fmt.Errorf("insert %q: %w", id, ErrDuplicateID)
	}
	tk, err := c.logLocked(&Mutation{Op: OpInsert, Collection: c.name, ID: id, packed: stored})
	if err != nil {
		c.mu.Unlock()
		return "", fmt.Errorf("insert %q: commit log: %w", id, err)
	}
	c.appendLocked(id, stored[0])
	// Fire the ingest observer inside the critical section that
	// assigned the commit-log LSN, so observers see inserts in LSN
	// order (see observer.go).
	if fn := c.obsFn(); fn != nil {
		fn(ticketLSN(tk), Batch{stored})
	}
	c.mu.Unlock()
	if err := commitWait(tk); err != nil {
		return "", fmt.Errorf("insert %q: commit: %w", id, err)
	}
	return id, nil
}

// InsertMany inserts docs in order under a single lock acquisition,
// stopping at the first error and returning the ids inserted so far.
// Documents after the failing one are not inserted. The insert timing
// counts once per stored document, each carrying an equal share of the
// batch duration, so per-op counts and totals stay consistent with a
// sequence of Insert calls.
//
// Unlike Insert, InsertMany takes ownership of the documents: ids are
// assigned in place and the values — nested maps and slices included —
// are stored directly instead of being defensively copied, so callers
// must hand over freshly built docs and not retain or mutate them
// afterwards.
func (c *Collection) InsertMany(docs []Doc) ([]string, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	m := c.metrics.Load()
	start := m.start()
	c.mu.Lock()
	// Validation pre-pass: mint ids and find the first duplicate, so
	// the accepted prefix is known — and logged as one commit-log
	// record — before any document is applied.
	n := len(docs)
	var firstErr error
	var seen map[string]struct{}
	for i := range docs {
		d := docs[i]
		id, _ := d[IDField].(string)
		if id == "" {
			d[IDField] = nextID()
			continue // minted ids are unique by construction
		}
		if _, dup := seen[id]; dup {
			firstErr = fmt.Errorf("insert #%d: insert %q: %w", i, id, ErrDuplicateID)
			n = i
			break
		}
		if _, exists := c.docs[id]; exists {
			firstErr = fmt.Errorf("insert #%d: insert %q: %w", i, id, ErrDuplicateID)
			n = i
			break
		}
		if seen == nil {
			seen = make(map[string]struct{})
		}
		seen[id] = struct{}{}
	}
	ids := make([]string, n)
	stored := make([]packed, n)
	for i := range stored {
		ids[i] = docs[i][IDField].(string)
		stored[i] = c.shapes.pack(docs[i], ids[i], false)
	}
	var tk CommitTicket
	if n > 0 {
		var lerr error
		tk, lerr = c.logLocked(&Mutation{Op: OpInsertMany, Collection: c.name, packed: stored})
		if lerr != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("insert many: commit log: %w", lerr)
		}
	}
	for i, p := range stored {
		c.appendLocked(ids[i], p)
	}
	// One commit-log record covers the whole accepted prefix, so the
	// observer gets the prefix as one call under that record's LSN —
	// the batch is the unit of replay idempotence (see observer.go).
	if fn := c.obsFn(); fn != nil && n > 0 {
		fn(ticketLSN(tk), Batch{stored})
	}
	c.mu.Unlock()
	if err := commitWait(tk); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("insert many: commit: %w", err)
	}
	if m != nil && len(ids) > 0 {
		per := time.Since(start) / time.Duration(len(ids))
		h := m.opDuration.With(c.name, "insert")
		for range ids {
			h.ObserveDuration(per)
		}
	}
	return ids, firstErr
}

// appendLocked stores a new document at the end of insertion order
// and indexes it. Caller holds the write lock and has verified the id
// is free.
func (c *Collection) appendLocked(id string, p packed) {
	e := &entry{seq: c.nextSeq, packed: p}
	c.nextSeq++
	c.docs[id] = e
	c.order = append(c.order, e)
	c.inserted++
	for _, ie := range c.indexList {
		ie.idx.add(e, e.fieldKey(ie.field))
	}
}

// Get returns a copy of the document with the given id.
func (c *Collection) Get(id string) (Doc, error) {
	c.mu.RLock()
	e, ok := c.docs[id]
	var row Row
	if ok {
		row = Row{e.packed}
	}
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("get %q: %w", id, ErrNotFound)
	}
	return row.Doc(nil), nil
}

// Update merges fields into the document with the given id (shallow
// merge; set a field to nil via Unset).
func (c *Collection) Update(id string, fields Doc) error {
	if m := c.metrics.Load(); m != nil {
		defer m.observe(c.name, "update", time.Now())
	}
	c.mu.Lock()
	e, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("update %q: %w", id, ErrNotFound)
	}
	tk, err := c.logLocked(&Mutation{Op: OpUpdate, Collection: c.name, ID: id, Fields: fields})
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("update %q: commit log: %w", id, err)
	}
	c.setLocked(e, fields)
	c.mu.Unlock()
	if err := commitWait(tk); err != nil {
		return fmt.Errorf("update %q: commit: %w", id, err)
	}
	return nil
}

// setLocked merges copies of fields into a stored document and moves
// it between posting lists to match. Caller holds the write lock.
func (c *Collection) setLocked(e *entry, fields Doc) {
	for k, v := range fields {
		if idx, has := c.indexes[k]; has && k != IDField {
			idx.remove(e, e.fieldKey(k))
			idx.add(e, keyOf(v))
		}
	}
	e.set(&c.shapes, fields)
	c.updated++
}

// Unset removes fields from a document.
func (c *Collection) Unset(id string, fields ...string) error {
	if m := c.metrics.Load(); m != nil {
		defer m.observe(c.name, "update", time.Now())
	}
	c.mu.Lock()
	e, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("unset %q: %w", id, ErrNotFound)
	}
	tk, err := c.logLocked(&Mutation{Op: OpUnset, Collection: c.name, ID: id, Names: fields})
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("unset %q: commit log: %w", id, err)
	}
	c.unsetLocked(e, fields)
	c.mu.Unlock()
	if err := commitWait(tk); err != nil {
		return fmt.Errorf("unset %q: commit: %w", id, err)
	}
	return nil
}

// unsetLocked removes fields from a stored document and from their
// posting lists. Caller holds the write lock.
func (c *Collection) unsetLocked(e *entry, fields []string) {
	for _, k := range fields {
		if idx, has := c.indexes[k]; has && k != IDField {
			idx.remove(e, e.fieldKey(k))
		}
	}
	e.unset(&c.shapes, fields)
	c.updated++
}

// Delete removes the document with the given id.
func (c *Collection) Delete(id string) error {
	if m := c.metrics.Load(); m != nil {
		defer m.observe(c.name, "delete", time.Now())
	}
	c.mu.Lock()
	e, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("delete %q: %w", id, ErrNotFound)
	}
	tk, err := c.logLocked(&Mutation{Op: OpDelete, Collection: c.name, ID: id})
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("delete %q: commit log: %w", id, err)
	}
	c.removeLocked(e)
	c.mu.Unlock()
	if err := commitWait(tk); err != nil {
		return fmt.Errorf("delete %q: commit: %w", id, err)
	}
	return nil
}

// removeLocked deletes an existing document: map entry, posting-list
// entries and its insertion-order slot, which it turns into a
// tombstone in place (lazily compacted once half the slots are dead;
// posting lists hold only live entries and are keyed by seq, so
// compaction leaves them alone). Caller holds the write lock.
func (c *Collection) removeLocked(e *entry) {
	delete(c.docs, e.id())
	for _, ie := range c.indexList {
		ie.idx.remove(e, e.fieldKey(ie.field))
	}
	e.packed = packed{}
	c.deleted++
	if int(c.deleted)*2 > len(c.order) {
		kept := c.order[:0]
		for _, oe := range c.order {
			if oe.live() {
				kept = append(kept, oe)
			}
		}
		clear(c.order[len(kept):])
		c.order = kept
		c.deleted = 0
	}
}

// DeleteMany removes every document matching filter; it returns the
// number removed.
func (c *Collection) DeleteMany(filter Doc) (int, error) {
	ids, err := c.FindIDs(filter)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if err := c.Delete(id); err == nil {
			n++
		}
	}
	return n, nil
}

// CountContext returns the number of documents matching filter (nil
// matches all), with scan cancellation; see FindIDsContext. Matches
// are counted in place over the chosen posting list; no ids or
// documents are materialized.
func (c *Collection) CountContext(ctx context.Context, filter Doc) (int, error) {
	if len(filter) == 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c.mu.RLock()
		defer c.mu.RUnlock()
		return len(c.docs), nil
	}
	n := 0
	err := c.view(ctx, filter, func(m *matcher) (bool, error) {
		list, indexUsed := c.planLocked(filter, 0)
		return indexUsed, scan(ctx, list, m, func(*entry) bool {
			n++
			return true
		})
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// FindIDs returns the ids of matching documents in insertion order,
// whether or not an index serves the filter.
func (c *Collection) FindIDs(filter Doc) ([]string, error) {
	return c.FindIDsContext(context.Background(), filter)
}

// FindIDsContext is FindIDs with cancellation: the scan checks ctx
// periodically (every scanCtxCheckEvery documents) and aborts with
// ctx.Err() once the context ends, so a slow query cannot hold the
// collection read lock past its caller's deadline.
func (c *Collection) FindIDsContext(ctx context.Context, filter Doc) ([]string, error) {
	ids := make([]string, 0)
	err := c.view(ctx, filter, func(m *matcher) (bool, error) {
		list, indexUsed := c.planLocked(filter, 0)
		return indexUsed, scan(ctx, list, m, func(e *entry) bool {
			ids = append(ids, e.id())
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// scanCtxCheckEvery is how many scanned documents pass between context
// checks — a power of two so the check compiles to a mask, frequent
// enough that an expired deadline stops a scan within a few thousand
// matcher calls.
const scanCtxCheckEvery = 256

// view is the frame every filtered read runs in: it compiles filter,
// runs fn under the read lock and counts the query in the store metrics.
// fn returns whether a secondary index pruned its scan.
func (c *Collection) view(ctx context.Context, filter Doc, fn func(m *matcher) (indexUsed bool, err error)) error {
	m, err := compileFilter(filter)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	mt := c.metrics.Load()
	start := mt.start()
	c.mu.RLock()
	indexUsed, err := fn(m)
	c.mu.RUnlock()
	mt.query(c.name, start, indexUsed)
	return err
}

// planLocked picks what a read of filter walks: the most selective
// posting list when filter pins an indexed field and the whole order
// otherwise — it reports which — cut to the entries with seq >= from.
// Either is in insertion order and the collection's own slice: valid,
// and read-only, while the caller holds the lock.
func (c *Collection) planLocked(filter Doc, from uint64) (list []*entry, indexUsed bool) {
	list, indexUsed = c.indexCandidatesLocked(filter)
	if !indexUsed {
		list = c.order
	}
	return list[searchSeq(list, from):], indexUsed
}

// scan calls visit, in order, for every live entry of list that matches
// m, until visit returns false. The caller holds the lock list is read
// under; visit must not retain the entry past it.
func scan(ctx context.Context, list []*entry, m *matcher, visit func(*entry) bool) error {
	for i, e := range list {
		if i&(scanCtxCheckEvery-1) == scanCtxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if e.live() && m.matches(&e.packed) && !visit(e) {
			break
		}
	}
	return nil
}

// indexCandidatesLocked returns the shortest posting list among the
// equality indexes filter pins: the candidates in insertion order.
func (c *Collection) indexCandidatesLocked(filter Doc) ([]*entry, bool) {
	var best []*entry
	found := false
	for _, ie := range c.indexList {
		v, ok := filter[ie.field]
		if !ok {
			continue
		}
		if _, isOp := v.(map[string]any); isOp {
			continue // operator filters scan
		}
		if _, isPred := v.(Predicate); isPred {
			continue // predicates scan (funcs are not index keys)
		}
		list := ie.idx.lookup(keyOf(v))
		if !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	return best, found
}

// FindOptions control Find result shaping.
type FindOptions struct {
	// SortField orders results by this field (missing values sort
	// first). Empty keeps insertion order.
	SortField string
	// SortDesc reverses the sort.
	SortDesc bool
	// Skip drops the first n results.
	Skip int
	// Limit caps results (0 = unlimited).
	Limit int
	// Projection restricts returned fields (the _id is always kept).
	Projection []string
}

// Find returns copies of the documents matching filter, shaped by
// opts.
func (c *Collection) Find(filter Doc, opts FindOptions) ([]Doc, error) {
	return c.FindContext(context.Background(), filter, opts)
}

// FindContext is Find with scan cancellation; see FindIDsContext. It
// is FindRowsContext with the page copied out as documents, after the
// collection's lock is released.
func (c *Collection) FindContext(ctx context.Context, filter Doc, opts FindOptions) ([]Doc, error) {
	rows, err := c.FindRowsContext(ctx, filter, opts)
	if err != nil {
		return nil, err
	}
	return rowDocs(ctx, rows, opts.Projection)
}

// FindRowsContext returns the documents matching filter as rows,
// ordered and paged by opts like FindContext's but not copied: see Row
// for what that allows. opts.Projection does not apply — a row is the
// whole document; Row.Doc and Row.AppendJSON take the restriction.
func (c *Collection) FindRowsContext(ctx context.Context, filter Doc, opts FindOptions) ([]Row, error) {
	return c.findRows(ctx, "", filter, opts)
}

// findRows is the one walk behind every read that returns documents:
// scan from the anchor (see resumeSeqLocked), order, page. The stored
// documents are ordered and paged in place; the page leaves as views.
func (c *Collection) findRows(ctx context.Context, afterID string, filter Doc, opts FindOptions) ([]Row, error) {
	var rows []Row
	err := c.view(ctx, filter, func(m *matcher) (bool, error) {
		from, err := c.resumeSeqLocked(ctx, afterID)
		if err != nil {
			return false, err
		}
		list, indexUsed := c.planLocked(filter, from)
		// Without a sort, insertion order is the result order and the
		// scan stops at the end of the page.
		want := 0
		if opts.SortField == "" && opts.Limit > 0 {
			want = max(opts.Skip, 0) + opts.Limit
		}
		// The hit list is sized once where its size is known: a page's
		// worth when the scan stops there, and a posting list's when one
		// is walked whole, since most of a posting list matches.
		room := 0
		if want > 0 {
			room = min(want, len(list))
		} else if indexUsed {
			room = len(list)
		}
		hits := make([]*entry, 0, room)
		if err := scan(ctx, list, m, func(e *entry) bool {
			hits = append(hits, e)
			return len(hits) != want
		}); err != nil {
			return indexUsed, err
		}
		if opts.SortField != "" {
			k := 0
			if opts.Limit > 0 {
				k = max(opts.Skip, 0) + opts.Limit
			}
			hits = sortEntries(hits, opts.SortField, opts.SortDesc, k)
		}
		if opts.Skip > 0 {
			hits = hits[min(opts.Skip, len(hits)):]
		}
		if opts.Limit > 0 && len(hits) > opts.Limit {
			hits = hits[:opts.Limit]
		}
		rows = make([]Row, len(hits))
		for i, e := range hits {
			rows[i] = Row{e.packed}
		}
		return indexUsed, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sortEntries orders hits by field in either direction, equal keys
// keeping insertion order: (key, seq) is a total order, so an unstable
// sort gives the stable answer. It returns the first k of that order —
// all of it when k is 0 — in hits' own array. Each document's key is
// read once, from its words for a number or a time (see valueKey), and
// only the k least are kept while the rest stream past.
func sortEntries(hits []*entry, field string, desc bool, k int) []*entry {
	type keyed struct {
		key valueKey
		e   *entry
	}
	order := func(a, b keyed) int {
		c := compareKeys(a.key, b.key)
		if desc {
			c = -c
		}
		if c == 0 {
			c = cmp.Compare(a.e.seq, b.e.seq)
		}
		return c
	}
	if k <= 0 || k > len(hits) {
		k = len(hits)
	}
	// ks is a max-heap of the k least keys met so far, until it is
	// sorted at the end.
	ks := make([]keyed, 0, k)
	down := func(i int) {
		for {
			top, l, r := i, 2*i+1, 2*i+2
			if l < len(ks) && order(ks[l], ks[top]) > 0 {
				top = l
			}
			if r < len(ks) && order(ks[r], ks[top]) > 0 {
				top = r
			}
			if top == i {
				return
			}
			ks[i], ks[top] = ks[top], ks[i]
			i = top
		}
	}
	for _, e := range hits {
		kd := keyed{e.fieldKey(field), e}
		if len(ks) < k {
			if ks = append(ks, kd); len(ks) == k && k < len(hits) {
				for i := k/2 - 1; i >= 0; i-- {
					down(i)
				}
			}
		} else if order(kd, ks[0]) < 0 {
			ks[0] = kd
			down(0)
		}
	}
	slices.SortFunc(ks, order)
	for i, kd := range ks {
		hits[i] = kd.e
	}
	return hits[:k]
}

// EnsureIndex creates an equality index on field (idempotent).
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	if _, ok := c.indexes[field]; ok {
		c.mu.Unlock()
		return
	}
	// Logged so a recovered store rebuilds indexes created after the
	// last checkpoint; best effort, like Drop.
	tk, lerr := c.logLocked(&Mutation{Op: OpEnsureIndex, Collection: c.name, Names: []string{field}})
	c.addIndexLocked(field)
	c.mu.Unlock()
	if lerr == nil {
		_ = commitWait(tk)
	}
}

// addIndexLocked builds the index on field from the documents already
// stored. It walks order, not the id map, so every posting list comes
// out sorted by seq. Caller holds the write lock.
func (c *Collection) addIndexLocked(field string) {
	idx := newIndex()
	for _, e := range c.order {
		if e.live() {
			idx.add(e, e.fieldKey(field))
		}
	}
	c.indexes[field] = idx
	c.indexList = append(c.indexList, indexEntry{field: field, idx: idx})
}

// Stats reports collection counters.
type Stats struct {
	Name     string `json:"name"`
	Docs     int    `json:"docs"`
	Indexes  int    `json:"indexes"`
	Inserted uint64 `json:"inserted"`
	Updated  uint64 `json:"updated"`
}

// Stats snapshots collection counters.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Name:     c.name,
		Docs:     len(c.docs),
		Indexes:  len(c.indexes),
		Inserted: c.inserted,
		Updated:  c.updated,
	}
}

// cloneDoc deep-copies a document.
func cloneDoc(d Doc) Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		return cloneDoc(t)
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}
