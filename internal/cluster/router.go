package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
)

// Router is a storage.Engine that partitions collections across N
// underlying engine shards by a per-collection shard key. Documents of
// a keyed collection land on ShardFor(key value); collections without
// a configured key (metadata: accounts, apps, jobs) live wholly on
// shard 0, so a Router over one shard is byte-for-byte the single-node
// engine.
//
// Identity semantics under sharding: a document's uniqueness is scoped
// to its shard-key partition. Two documents with the same _id but
// different shard-key values may coexist on different shards — the
// same contract MongoDB's sharded unique index has, and irrelevant to
// goflow, where _ids are minted by the store.
type Router struct {
	shards []storage.Engine
	keys   map[string]string

	metrics *Metrics
}

// RouterOptions configure NewRouter.
type RouterOptions struct {
	// Keys maps collection name to the field whose value routes each
	// document. Collections not listed are unsharded (pinned to shard
	// 0).
	Keys map[string]string
	// Metrics receives router counters when non-nil.
	Metrics *Metrics
}

// DefaultShardKeys is the goflow routing table: observations shard by
// the anonymized device id (each contributor's stream stays local to
// one shard, so per-user queries and right-to-erasure deletes touch
// one shard), and zone statistics shard by geo zone.
func DefaultShardKeys() map[string]string {
	return map[string]string{
		"observations": "userId",
		"zone_stats":   "zone",
	}
}

// NewRouter builds an engine over the given shards. The shard slice
// order is the shard numbering and must be stable across restarts.
func NewRouter(shards []storage.Engine, opts RouterOptions) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	keys := opts.Keys
	if keys == nil {
		keys = DefaultShardKeys()
	}
	return &Router{shards: shards, keys: keys, metrics: opts.Metrics}, nil
}

// shardFor routes one document: hash of the shard-key field's value,
// or shard 0 when the collection is unsharded or the document does not
// carry the key field.
func (r *Router) shardFor(col string, doc storage.Doc) int {
	field := r.keys[col]
	if field == "" || len(r.shards) == 1 {
		return 0
	}
	v, ok := doc[field]
	if !ok {
		return 0
	}
	return ShardFor(fmt.Sprint(v), len(r.shards))
}

// Insert implements storage.Engine.
func (r *Router) Insert(col string, doc storage.Doc) (string, error) {
	return r.shards[r.shardFor(col, doc)].Insert(col, doc)
}

// InsertMany implements storage.Engine: partition the batch per shard,
// insert the partitions concurrently, and reassemble the ids in input
// order. On a mid-batch failure the engine contract (valid prefix
// stored, nothing after it) still holds globally: the failing document
// with the lowest input position defines the prefix, and concurrently
// inserted documents past it are rolled back on their shards.
func (r *Router) InsertMany(col string, docs []storage.Doc) ([]string, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	if len(r.shards) == 1 || r.keys[col] == "" {
		return r.shards[0].InsertMany(col, docs)
	}
	type part struct {
		pos  []int // input positions, ascending
		docs []storage.Doc
	}
	parts := make([]part, len(r.shards))
	for i, d := range docs {
		s := r.shardFor(col, d)
		parts[s].pos = append(parts[s].pos, i)
		parts[s].docs = append(parts[s].docs, d)
	}
	ids := make([][]string, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for s := range parts {
		if len(parts[s].docs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ids[s], errs[s] = r.shards[s].InsertMany(col, parts[s].docs)
		}(s)
	}
	wg.Wait()
	if r.metrics != nil {
		r.metrics.RouterFanouts.Inc()
	}

	// The global valid prefix ends at the earliest input position that
	// failed. Each shard stored its own local prefix; ids[s] is that
	// prefix, so the first failing position on shard s is pos[len(ids)].
	// A shard may also error with ALL its documents stored (a
	// durability error, e.g. an ack-quorum timeout: applied but not
	// acknowledged) — that defines no positional cut; the error is
	// propagated and the caller must treat the whole batch as
	// unacknowledged.
	failAt := len(docs)
	var failErr, durErr error
	for s := range parts {
		if errs[s] == nil {
			continue
		}
		if len(ids[s]) < len(parts[s].pos) {
			if g := parts[s].pos[len(ids[s])]; g < failAt {
				failAt = g
				failErr = errs[s]
			}
		} else if durErr == nil {
			durErr = errs[s]
		}
	}
	if failErr == nil {
		failErr = durErr
	}
	out := make([]string, 0, len(docs))
	for s := range parts {
		for k, id := range ids[s] {
			if g := parts[s].pos[k]; g > failAt {
				// Inserted concurrently past the failure point: roll it
				// back on the shard that holds it.
				_ = r.shards[s].Delete(col, id)
			}
		}
	}
	// Reassemble surviving ids in input order.
	byPos := make(map[int]string, len(docs))
	for s := range parts {
		for k, id := range ids[s] {
			if parts[s].pos[k] < failAt {
				byPos[parts[s].pos[k]] = id
			}
		}
	}
	for i := 0; i < failAt; i++ {
		if id, ok := byPos[i]; ok {
			out = append(out, id)
		}
	}
	if failErr != nil {
		return out, failErr
	}
	return out, nil
}

// Get implements storage.Engine. The id alone does not reveal the
// shard, so the lookup tries each shard in order.
func (r *Router) Get(col, id string) (storage.Doc, error) {
	for _, s := range r.shards {
		d, err := s.Get(col, id)
		if err == nil {
			return d, nil
		}
		if !errors.Is(err, docstore.ErrNotFound) {
			return nil, err
		}
	}
	return nil, docstore.ErrNotFound
}

// Update implements storage.Engine.
func (r *Router) Update(col, id string, fields storage.Doc) error {
	return r.tryEach(func(s storage.Engine) error { return s.Update(col, id, fields) })
}

// Unset implements storage.Engine.
func (r *Router) Unset(col, id string, fields ...string) error {
	return r.tryEach(func(s storage.Engine) error { return s.Unset(col, id, fields...) })
}

// Delete implements storage.Engine.
func (r *Router) Delete(col, id string) error {
	return r.tryEach(func(s storage.Engine) error { return s.Delete(col, id) })
}

// tryEach runs op against each shard until one claims the document.
func (r *Router) tryEach(op func(storage.Engine) error) error {
	for _, s := range r.shards {
		err := op(s)
		if err == nil {
			return nil
		}
		if !errors.Is(err, docstore.ErrNotFound) {
			return err
		}
	}
	return docstore.ErrNotFound
}

// DeleteMany implements storage.Engine: fan out and sum.
func (r *Router) DeleteMany(col string, filter storage.Doc) (int, error) {
	var (
		mu    sync.Mutex
		total int
	)
	err := r.fanOut(func(s storage.Engine) error {
		n, err := s.DeleteMany(col, filter)
		mu.Lock()
		total += n
		mu.Unlock()
		return err
	})
	return total, err
}

// FindContext implements storage.Engine: FindRows, copied out.
func (r *Router) FindContext(ctx context.Context, col string, filter storage.Doc, opts docstore.FindOptions) ([]storage.Doc, error) {
	rows, err := r.FindRows(ctx, col, filter, opts)
	if err != nil {
		return nil, err
	}
	docs := make([]storage.Doc, len(rows))
	for i, row := range rows {
		docs[i] = row.Doc(opts.Projection)
	}
	return docs, nil
}

// FindRows implements storage.Engine: fan the scan out, then merge.
// Each shard is asked for Skip+Limit results (it cannot know how many
// of its documents survive the global skip), the sorted partial
// results are merged with the docstore ordering, and the global
// skip/limit applies to the merged stream. A row is the whole document,
// so the merge has its sort key whatever the projection.
func (r *Router) FindRows(ctx context.Context, col string, filter storage.Doc, opts docstore.FindOptions) ([]docstore.Row, error) {
	if len(r.shards) == 1 {
		return r.shards[0].FindRows(ctx, col, filter, opts)
	}
	per := opts
	per.Skip = 0
	if opts.Limit > 0 {
		per.Limit = opts.Skip + opts.Limit
	}
	partials := make([][]docstore.Row, len(r.shards))
	err := r.fanOutIndexed(func(i int, s storage.Engine) error {
		rows, err := s.FindRows(ctx, col, filter, per)
		partials[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	var merged []docstore.Row
	if opts.SortField != "" {
		// Each partial is already sorted: stream-merge the runs
		// (merge.go) instead of re-sorting the concatenation. Ties
		// resolve by (shard, position), exactly what a stable sort of
		// the shard-ordered concatenation would yield.
		merged = mergeSortedRuns(partials, opts.SortField, opts.SortDesc)
	} else {
		for _, p := range partials {
			merged = append(merged, p...)
		}
	}
	if opts.Skip > 0 {
		merged = merged[min(opts.Skip, len(merged)):]
	}
	if opts.Limit > 0 && len(merged) > opts.Limit {
		merged = merged[:opts.Limit]
	}
	return merged, nil
}

// CountContext implements storage.Engine: fan out and sum.
func (r *Router) CountContext(ctx context.Context, col string, filter storage.Doc) (int, error) {
	var (
		mu    sync.Mutex
		total int
	)
	err := r.fanOut(func(s storage.Engine) error {
		n, err := s.CountContext(ctx, col, filter)
		mu.Lock()
		total += n
		mu.Unlock()
		return err
	})
	return total, err
}

// EnsureIndex implements storage.Engine on every shard.
func (r *Router) EnsureIndex(col, field string) {
	for _, s := range r.shards {
		s.EnsureIndex(col, field)
	}
}

// Collections implements storage.Engine: sorted union.
func (r *Router) Collections() []string {
	seen := map[string]bool{}
	for _, s := range r.shards {
		for _, c := range s.Collections() {
			seen[c] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Stats implements storage.Engine: counters summed across shards
// (Indexes reports shard 0's count — every shard carries the same
// index set).
func (r *Router) Stats(col string) docstore.Stats {
	var agg docstore.Stats
	agg.Name = col
	for i, s := range r.shards {
		st := s.Stats(col)
		agg.Docs += st.Docs
		agg.Inserted += st.Inserted
		agg.Updated += st.Updated
		if i == 0 {
			agg.Indexes = st.Indexes
		}
	}
	return agg
}

// Checkpoint implements storage.Engine on every shard. Shards
// checkpoint independently — each owns its WAL and snapshot — so one
// slow shard does not hold the others' logs open.
func (r *Router) Checkpoint() error {
	return r.fanOut(func(s storage.Engine) error { return s.Checkpoint() })
}

// Close implements storage.Engine on every shard.
func (r *Router) Close() error {
	var first error
	for _, s := range r.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fanOut runs op on every shard concurrently and returns the
// lowest-numbered shard's error.
func (r *Router) fanOut(op func(storage.Engine) error) error {
	return r.fanOutIndexed(func(_ int, s storage.Engine) error { return op(s) })
}

func (r *Router) fanOutIndexed(op func(int, storage.Engine) error) error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = op(i, r.shards[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
