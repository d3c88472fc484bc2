package docstore

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// Stored form. A collection does not keep its documents as maps: a
// hash table per document is most of what a stored observation would
// weigh. A stored document is a pointer to a shape — its field names,
// sorted, shared by every document of the process with the same field
// set — and one slice holding its values in that order. Writes are
// packed on the way in; reads hand the form out as a read-only Row
// (row.go) or build a Doc from one. DESIGN.md §9 "Stored form" has the
// rationale.

// shape is a set of field names in ascending order. It is immutable
// once built, so any number of documents, collections and goroutines
// share one.
type shape struct {
	names []string
	// quoted is each name as a JSON object key, colon included, for
	// Row.AppendJSON. It is built when the registry takes the shape and
	// is nil for a private one, which is not worth caching for.
	quoted []string
}

// index returns the slot of name, or -1 when the shape lacks it.
func (s *shape) index(name string) int {
	if i, ok := slices.BinarySearch(s.names, name); ok {
		return i
	}
	return -1
}

// The shape registry is process-wide and, like the intern tables of
// the codec, bounded: it holds the first maxShapes shapes whose names
// fit in maxShapeKey bytes. A shape past either bound is still built,
// but belongs to the one document that needed it.
const (
	maxShapes   = 1024
	maxShapeKey = 1024
)

// shapes maps a shape's key — its names, each length-prefixed — to it.
var shapes cowMap[*shape]

// ShapeCount reports how many shapes the process has registered. It
// stays in the tens while documents share field sets; a count at the
// registry's bound says a workload gives every document its own.
func ShapeCount() int { return shapes.len() }

// internShape returns the shape whose names are exactly names, which
// are sorted and distinct; they are copied if a shape has to be made.
func internShape(names []string) *shape {
	var buf [256]byte
	key := buf[:0]
	for _, n := range names {
		key = append(binary.AppendUvarint(key, uint64(len(n))), n...)
	}
	if sh, ok := shapes.get(key); ok {
		return sh
	}
	sh := &shape{names: slices.Clone(names)}
	if len(key) > maxShapeKey || shapes.len() >= maxShapes {
		return sh
	}
	sh.quoted = quoteNames(sh.names)
	stored, full := shapes.add(string(key), sh, maxShapes)
	if full { // the last free slot went to a concurrent intern
		sh.quoted = nil
	}
	return stored
}

// shapeCache is the shapes its owner's documents last had, tried
// before the registry: the observations of one collection alternate
// between two field sets (localized or not), and checking a candidate
// costs neither a sort nor a key. Safe for concurrent use.
type shapeCache struct {
	recent [4]atomic.Pointer[shape]
	next   atomic.Uint32
}

func (sc *shapeCache) remember(sh *shape) {
	sc.recent[sc.next.Add(1)%uint32(len(sc.recent))].Store(sh)
}

// find returns the shape whose names are exactly names (sorted and
// distinct; not retained).
func (sc *shapeCache) find(names []string) *shape {
	for i := range sc.recent {
		if sh := sc.recent[i].Load(); sh != nil && slices.Equal(sh.names, names) {
			return sh
		}
	}
	sh := internShape(names)
	sc.remember(sh)
	return sh
}

// pack returns the stored form of d with id as its _id, whatever d
// holds there. The values are deep copies when clone is set and d's own
// otherwise; d itself is only read.
func (sc *shapeCache) pack(d Doc, id string, clone bool) packed {
	n := len(d)
	if _, hasID := d[IDField]; !hasID {
		n++
	}
	p := packed{vals: make([]any, n)}
	for i := range sc.recent {
		// A shape of n names, each of them the id or a field of d, has
		// exactly d's fields and the id.
		if sh := sc.recent[i].Load(); sh != nil && len(sh.names) == n && p.fill(sh, d, id) {
			break
		}
	}
	if p.shape == nil {
		names := make([]string, 0, n)
		for k := range d {
			names = append(names, k)
		}
		if len(names) < n {
			names = append(names, IDField)
		}
		slices.Sort(names)
		sh := internShape(names)
		sc.remember(sh)
		p.fill(sh, d, id)
	}
	if clone {
		for i, v := range p.vals {
			p.vals[i] = cloneValue(v)
		}
	}
	return p
}

// packed is one document in stored form: vals[i] is the value of field
// shape.names[i]. The slice belongs to the document; the shape does not.
type packed struct {
	shape *shape
	vals  []any
}

// fill takes sh as p's shape and, in sh's order, id and d's other
// values as its values — unless d lacks one of sh's fields other than
// the id, which is reported and leaves p without a shape.
func (p *packed) fill(sh *shape, d Doc, id string) bool {
	for i, name := range sh.names {
		v, ok := d[name]
		if name == IDField {
			if v != id { // else d's own boxed copy serves
				v = id
			}
		} else if !ok {
			return false
		}
		p.vals[i] = v
	}
	p.shape = sh
	return true
}

// get returns the value of a field and whether the document has it.
func (p *packed) get(name string) (any, bool) {
	if i := p.shape.index(name); i >= 0 {
		return p.vals[i], true
	}
	return nil, false
}

// value is get for callers to whom an absent field reads as nil.
func (p *packed) value(name string) any {
	v, _ := p.get(name)
	return v
}

// set merges deep copies of fields into the document, the _id
// excepted. The document's value slice is never written: rows handed
// out by earlier reads alias it (see Row), and an update is rare where
// a read is not, so the update pays for a new slice — of the same shape
// when the document has every field, of the shape that has the new ones
// too otherwise — which takes the old one's place.
func (p *packed) set(sc *shapeCache, fields Doc) {
	var added []string
	for k := range fields {
		if k != IDField && p.shape.index(k) < 0 {
			added = append(added, k)
		}
	}
	next := packed{shape: p.shape}
	if len(added) > 0 {
		names := append(added, p.shape.names...)
		slices.Sort(names)
		next.shape = sc.find(names)
	}
	next.vals = make([]any, len(next.shape.names))
	for i, name := range next.shape.names {
		if v, given := fields[name]; given && name != IDField {
			next.vals[i] = cloneValue(v)
		} else {
			next.vals[i] = p.value(name)
		}
	}
	*p = next
}

// unset removes fields from the document, the _id excepted; removing
// any it has moves it to the shape without them.
func (p *packed) unset(sc *shapeCache, fields []string) {
	stays := func(name string) bool { return name == IDField || !slices.Contains(fields, name) }
	n := 0
	for _, name := range p.shape.names {
		if stays(name) {
			n++
		}
	}
	if n == len(p.vals) {
		return
	}
	names, vals := make([]string, 0, n), make([]any, 0, n)
	for i, name := range p.shape.names {
		if stays(name) {
			names, vals = append(names, name), append(vals, p.vals[i])
		}
	}
	*p = packed{shape: sc.find(names), vals: vals}
}
