package docstore

import (
	"strconv"
	"time"
)

// entry is one stored document and its place in insertion order. The
// collection's id map, its order slice and every posting list share
// the same *entry, so a read plan reaches the stored document from an
// index without an id lookup.
type entry struct {
	// seq is the insertion sequence: strictly increasing along
	// Collection.order and never reused or renumbered, so it survives
	// order compaction and orders any two entries of a collection.
	seq uint64
	id  string
	// The document, in stored form (shape.go). Its shape is nil once the
	// document is deleted; the entry then stays in Collection.order as a
	// tombstone until compaction.
	packed
}

// live reports whether the entry still holds a document.
func (e *entry) live() bool { return e.shape != nil }

// searchSeq returns the first position in list, which is sorted by
// seq, whose entry has seq >= want.
func searchSeq(list []*entry, want uint64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].seq < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// postings is one value's posting list: the live entries indexed under
// that value, sorted by seq — i.e. in insertion order. It is held by
// pointer so growing the list is not a map assignment.
type postings struct {
	list []*entry
}

// index is a secondary equality index: canonicalized value -> posting
// list. A list holds every live entry whose field compares equal to
// the value (and possibly entries lacking the field, under nil), so it
// is a candidate set the matcher still filters. It is guarded by the
// owning collection's mutex.
type index struct {
	byValue map[string]*postings
}

func newIndex() *index {
	return &index{byValue: make(map[string]*postings)}
}

// canonKey folds equal-comparing values (e.g. int 3 and float64 3.0)
// to the same index key, matching compareValues semantics.
func canonKey(v any) string {
	switch t := v.(type) {
	case nil:
		return "n:"
	case bool:
		if t {
			return "b:1"
		}
		return "b:0"
	case int, int32, int64, uint, uint32, uint64, float32, float64:
		return "f:" + strconv.FormatFloat(toFloat(v), 'g', -1, 64)
	case time.Time:
		return "t:" + strconv.FormatInt(t.UnixNano(), 10)
	case string:
		return "s:" + t
	default:
		return "x:" // unindexable kinds share one bucket; scan filters
	}
}

// get returns v's posting list, or nil. String values — the
// overwhelmingly common indexed kind — take a fast path where the
// canonical key is built inside the map access so the concatenation
// never escapes to the heap.
func (ix *index) get(v any) *postings {
	if s, ok := v.(string); ok {
		return ix.byValue["s:"+s]
	}
	return ix.byValue[canonKey(v)]
}

// add indexes e under v. A newly inserted entry has the highest seq
// and is appended; an update that moves an older entry between values
// inserts it at its seq position. A key string is only materialized
// when a new value bucket is created.
func (ix *index) add(e *entry, v any) {
	p := ix.get(v)
	if p == nil {
		ix.byValue[canonKey(v)] = &postings{list: []*entry{e}}
		return
	}
	n := len(p.list)
	if p.list[n-1].seq < e.seq {
		p.list = append(p.list, e)
		return
	}
	i := searchSeq(p.list, e.seq)
	p.list = append(p.list, nil)
	copy(p.list[i+1:], p.list[i:])
	p.list[i] = e
}

// remove drops e from v's posting list, if it is there.
func (ix *index) remove(e *entry, v any) {
	p := ix.get(v)
	if p == nil {
		return
	}
	i := searchSeq(p.list, e.seq)
	if i == len(p.list) || p.list[i] != e {
		return
	}
	if len(p.list) == 1 {
		delete(ix.byValue, canonKey(v))
		return
	}
	copy(p.list[i:], p.list[i+1:])
	p.list[len(p.list)-1] = nil
	p.list = p.list[:len(p.list)-1]
}

// lookup returns the posting list of v itself, not a copy: callers
// hold the collection lock while they walk it and must not modify it.
func (ix *index) lookup(v any) []*entry {
	if p := ix.get(v); p != nil {
		return p.list
	}
	return nil
}
