package series

import "time"

// Hooks observe DB activity, in the style of docstore.Hooks: a struct
// of optional callbacks the metrics layer fills in. Callbacks run on
// the hot path outside the DB lock and must be fast and non-blocking.
type Hooks struct {
	// Append fires per appended point batch (n points).
	Append func(n int)
	// Seal fires when an active chunk seals (points encoded, bytes).
	Seal func(points, bytes int)
	// Query fires per query: kind is "zone" or "noisemap", scanned
	// and skipped count the chunks decoded vs pruned by the sparse
	// index.
	Query func(kind string, d time.Duration, scanned, skipped int)
	// WindowMemo fires beside Query for a read that touched whole
	// partition windows: how many were served from their memo (hits)
	// and how many had to be re-merged from their buckets first
	// (fills) because a point had landed in them since the last read.
	WindowMemo func(hits, fills int)
	// EdgePoints fires beside Query for a read whose sub-bucket edges
	// decoded raw points: how many were decoded, and how many of those
	// fell inside the range and were kept.
	EdgePoints func(decoded, kept int)
	// Retention fires when ApplyRetention drops raw chunks.
	Retention func(chunks, points int)
	// Rebuild fires when the rollups are rebuilt from chunks.
	Rebuild func()
	// Checkpoint fires after a successful checkpoint.
	Checkpoint func(d time.Duration, chunksSaved int)
}

// SetHooks attaches hooks (nil detaches). Safe to call while the DB
// is in use.
func (db *DB) SetHooks(h *Hooks) {
	if h == nil {
		db.hooks.Store(nil)
		return
	}
	cp := *h
	db.hooks.Store(&cp)
}
