package cluster

import "github.com/urbancivics/goflow/internal/docstore"

// Streaming k-way merge for fanned-out sorted scans. Each shard
// returns its partial result already sorted (the docstore sorts
// per-shard), so re-sorting the concatenation — O(n log n) comparisons
// over the full result — throws that work away. The merge walks the N
// sorted runs with a binary heap of cursors: O(n log N), and N (the
// shard count) is small.
//
// Output order is byte-identical to the previous
// concatenate-and-stable-sort: equal sort keys resolve by (shard,
// position), which is exactly the order a stable sort of the
// shard-ordered concatenation preserves.

// mergeCursor is one shard's read position in its sorted run.
type mergeCursor struct {
	shard int
	pos   int
	rows  []docstore.Row
}

// mergeSortedRuns merges per-shard runs sorted on field (descending
// when desc) into one sorted slice.
func mergeSortedRuns(partials [][]docstore.Row, field string, desc bool) []docstore.Row {
	total, nonEmpty := 0, 0
	for _, p := range partials {
		total += len(p)
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		for _, p := range partials {
			if len(p) > 0 {
				return p
			}
		}
	}
	less := func(a, b mergeCursor) bool {
		c := docstore.CompareValues(a.rows[a.pos].Value(field), b.rows[b.pos].Value(field))
		if c == 0 {
			return a.shard < b.shard
		}
		if desc {
			return c > 0
		}
		return c < 0
	}
	h := make([]mergeCursor, 0, nonEmpty)
	for s, p := range partials {
		if len(p) > 0 {
			h = append(h, mergeCursor{shard: s, rows: p})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	out := make([]docstore.Row, 0, total)
	for len(h) > 0 {
		cur := &h[0]
		out = append(out, cur.rows[cur.pos])
		cur.pos++
		if cur.pos == len(cur.rows) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 1 {
			siftDown(h, 0, less)
		}
	}
	return out
}

// siftDown restores the min-heap property from index i.
func siftDown(h []mergeCursor, i int, less func(a, b mergeCursor) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
