package docstore

import "strconv"

// entry is one stored document and its place in insertion order. The
// collection's id map, its order slice and every posting list share
// the same *entry, so a read plan reaches the stored document from an
// index without an id lookup.
type entry struct {
	// seq is the insertion sequence: strictly increasing along
	// Collection.order and never reused or renumbered, so it survives
	// order compaction and orders any two entries of a collection.
	seq uint64
	// The document, in stored form (shape.go); its id is its _id slot.
	// Its shape is nil once the document is deleted; the entry then
	// stays in Collection.order as a tombstone until compaction.
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

// appendCanonKey appends the index key of a value's key: the value's
// rank and, within it, a string that is equal exactly when the values
// compare equal — so int 3 and float64 3.0 share one, as compareValues
// has them equal.
func appendCanonKey(dst []byte, k valueKey) []byte {
	switch k.rank {
	case 0:
		return append(dst, "n:"...)
	case 1:
		if k.num() != 0 {
			return append(dst, "b:1"...)
		}
		return append(dst, "b:0"...)
	case 2:
		return strconv.AppendFloat(append(dst, "f:"...), k.num(), 'g', -1, 64)
	case 3:
		// time.Time.UnixNano's arithmetic, wrapping where it wraps.
		return strconv.AppendInt(append(dst, "t:"...), (int64(k.x)-unixToInternal)*1e9+int64(k.nsec), 10)
	case 4:
		return append(append(dst, "s:"...), k.v.(string)...)
	default:
		return append(dst, "x:"...) // unindexable kinds share one bucket; scan filters
	}
}

// get returns the posting list of the values whose key is k, or nil.
// The canonical key is built on the stack and converted inside the map
// access, so a lookup allocates nothing; string values — the
// overwhelmingly common indexed kind — skip even the buffer.
func (ix *index) get(k valueKey) *postings {
	if k.rank == 4 {
		return ix.byValue["s:"+k.v.(string)]
	}
	var buf [40]byte
	return ix.byValue[string(appendCanonKey(buf[:0], k))]
}

// add indexes e under the value whose key is k. A newly inserted entry
// has the highest seq and is appended; an update that moves an older
// entry between values inserts it at its seq position. A key string is
// only materialized when a new value bucket is created.
func (ix *index) add(e *entry, k valueKey) {
	p := ix.get(k)
	if p == nil {
		ix.byValue[string(appendCanonKey(nil, k))] = &postings{list: []*entry{e}}
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

// remove drops e from the posting list of k, if it is there.
func (ix *index) remove(e *entry, k valueKey) {
	p := ix.get(k)
	if p == nil {
		return
	}
	i := searchSeq(p.list, e.seq)
	if i == len(p.list) || p.list[i] != e {
		return
	}
	if len(p.list) == 1 {
		var buf [40]byte
		delete(ix.byValue, string(appendCanonKey(buf[:0], k)))
		return
	}
	copy(p.list[i:], p.list[i+1:])
	p.list[len(p.list)-1] = nil
	p.list = p.list[:len(p.list)-1]
}

// lookup returns the posting list of the values whose key is k itself,
// not a copy: callers hold the collection lock while they walk it and
// must not modify it.
func (ix *index) lookup(k valueKey) []*entry {
	if p := ix.get(k); p != nil {
		return p.list
	}
	return nil
}
