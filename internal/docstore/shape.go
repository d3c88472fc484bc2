package docstore

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stored form. A collection does not keep its documents as maps: a
// hash table per document is most of what a stored observation would
// weigh. A stored document is a pointer to a shape — its field names,
// sorted, and the kind of value each holds, shared by every document
// of the process with the same fields of the same kinds — and two
// slices: the words its numbers, bools and times are written in,
// followed by the one-byte codes of its strings that their fields'
// intern tables hold (codec.go), and the interface values of the rest
// (the _id, other strings, nil, maps, slices). The word slice holds no
// pointer, so the collector does not look inside it, and a scalar
// costs its word, an enumerated string its byte, instead of a heap box
// or an interface slot. Writes are packed on the way in; reads hand
// the form out as a read-only Row (row.go) or build a Doc from one.
// DESIGN.md §9 "Stored form" has the rationale.

// kind is how a slot of a shape holds its value.
type kind uint8

const (
	kindAny     kind = iota // an interface value in vals
	kindFloat64             // one word: the IEEE 754 bits
	kindInt                 // one word: the two's complement bits
	kindInt64               // one word: the two's complement bits
	kindBool                // one word: 0 or 1
	kindTime                // two words: Unix seconds; nanoseconds | zone offset seconds<<32
	kindCode                // one byte of the codes after the words: a string's code in its field's table
)

// scalar is a value held in words: its kind and its one or two words.
type scalar struct {
	kind   kind
	w0, w1 uint64
}

// scalarOf returns v as words, or kindAny when v is held as itself. A
// time whose zone offset does not fit 32 bits is held as itself.
func scalarOf(v any) scalar {
	switch t := v.(type) {
	case float64:
		return scalar{kind: kindFloat64, w0: math.Float64bits(t)}
	case int:
		return scalar{kind: kindInt, w0: uint64(t)}
	case int64:
		return scalar{kind: kindInt64, w0: uint64(t)}
	case bool:
		if t {
			return scalar{kind: kindBool, w0: 1}
		}
		return scalar{kind: kindBool}
	case time.Time:
		if _, off := t.Zone(); int(int32(off)) == off {
			return scalar{kind: kindTime, w0: uint64(t.Unix()), w1: uint64(t.Nanosecond()) | uint64(uint32(off))<<32}
		}
	}
	return scalar{}
}

// box returns the value the words hold.
func (s scalar) box() any {
	switch s.kind {
	case kindFloat64:
		return s.float()
	case kindInt:
		return int(s.w0)
	case kindInt64:
		return int64(s.w0)
	case kindBool:
		return s.w0 != 0
	default:
		return s.time()
	}
}

// float is a kindFloat64's value.
func (s scalar) float() float64 { return math.Float64frombits(s.w0) }

// timeParts are a kindTime's Unix seconds, nanoseconds and zone offset.
func (s scalar) timeParts() (sec, nsec, off int64) {
	return int64(s.w0), int64(uint32(s.w1)), int64(int32(s.w1 >> 32))
}

// time is a kindTime's value, in its canonical zone: UTC for offset 0,
// else the process's shared unnamed zone of its offset. That is the
// time the document codec decodes, so a document reads the same
// whether it was inserted in this process or recovered.
func (s scalar) time() time.Time {
	sec, nsec, off := s.timeParts()
	t := time.Unix(sec, nsec)
	if off == 0 {
		return t.UTC()
	}
	return t.In(fixedZone(off))
}

// The unnamed fixed zones canonical times are read in, one per offset,
// shared process-wide up to maxZones offsets (every real one fits);
// past that each read builds its own.
const maxZones = 256

var zones struct {
	mu sync.Mutex // serialises writers
	m  atomic.Pointer[map[int64]*time.Location]
}

func fixedZone(off int64) *time.Location {
	if m := zones.m.Load(); m != nil {
		if loc, ok := (*m)[off]; ok {
			return loc
		}
	}
	loc := time.FixedZone("", int(off))
	zones.mu.Lock()
	defer zones.mu.Unlock()
	old := zones.m.Load()
	if old != nil {
		if cur, ok := (*old)[off]; ok {
			return cur
		}
		if len(*old) >= maxZones {
			return loc
		}
	}
	next := map[int64]*time.Location{off: loc}
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	zones.m.Store(&next)
	return loc
}

// shape is a set of field names in ascending order and the kind of
// value each holds. It is immutable once built, so any number of
// documents, collections and goroutines share one.
type shape struct {
	names []string
	kinds []kind
	// at is where each slot's value sits: its index in vals for
	// kindAny, of its byte in words (read as little-endian bytes) for
	// kindCode, of its first word in words otherwise.
	at []int32
	// nvals and nwords are the lengths of a document's two slices.
	nvals, nwords int
	// codesAt is the byte in words of the first code: the codes follow
	// the scalars' words, in slot order, eight to a word.
	codesAt int32
	// idAt is the index in vals of the _id, -1 when the shape holds no
	// string _id.
	idAt int
	// interns is, for each kindAny and kindCode slot, the codec's intern
	// table of its field (nil past the tables' bounds): what a code is
	// the code of, and what pack asks whether a string has one.
	interns []*internField
	// quoted is each name as a JSON object key, colon included, for
	// Row.AppendJSON. It is built when the registry takes the shape and
	// is nil for a private one, which is not worth caching for.
	quoted []string
}

// newShape lays out a shape of names holding kinds, which it copies.
func newShape(names []string, kinds []kind) *shape {
	sh := &shape{names: slices.Clone(names), kinds: slices.Clone(kinds), at: make([]int32, len(names)), idAt: -1,
		interns: make([]*internField, len(names))}
	var ncodes int32
	for i, k := range kinds {
		switch k {
		case kindAny:
			if names[i] == IDField {
				sh.idAt = sh.nvals
			}
			sh.at[i] = int32(sh.nvals)
			sh.nvals++
			sh.interns[i] = fieldNamed(names[i])
		case kindCode:
			sh.at[i] = ncodes // placed past the words below
			ncodes++
			sh.interns[i] = fieldNamed(names[i])
		case kindTime:
			sh.at[i] = int32(sh.nwords)
			sh.nwords += 2
		default:
			sh.at[i] = int32(sh.nwords)
			sh.nwords++
		}
	}
	sh.codesAt = int32(sh.nwords) * 8
	for i, k := range kinds {
		if k == kindCode {
			sh.at[i] += sh.codesAt
		}
	}
	sh.nwords += int(ncodes+7) / 8
	return sh
}

// index returns the slot of name, or -1 when the shape lacks it.
func (s *shape) index(name string) int {
	if i, ok := slices.BinarySearch(s.names, name); ok {
		return i
	}
	return -1
}

// is reports whether the shape is exactly names holding kinds.
func (s *shape) is(names []string, kinds []kind) bool {
	return slices.Equal(s.names, names) && slices.Equal(s.kinds, kinds)
}

// The shape registry is process-wide and, like the intern tables of
// the codec, bounded: it holds the first maxShapes shapes whose names
// fit in maxShapeKey bytes. A shape past either bound is still built,
// but belongs to the one document that needed it.
const (
	maxShapes   = 1024
	maxShapeKey = 1024
)

// shapes maps a shape's key — each name, length-prefixed, and its
// kind — to it.
var shapes cowMap[*shape]

// ShapeCount reports how many shapes the process has registered. It
// stays in the tens while documents share field sets; a count at the
// registry's bound says a workload gives every document its own.
func ShapeCount() int { return shapes.len() }

// internShape returns the shape whose names are exactly names, which
// are sorted and distinct, holding kinds; both are copied if a shape
// has to be made.
func internShape(names []string, kinds []kind) *shape {
	var buf [256]byte
	key := buf[:0]
	for i, n := range names {
		key = append(append(binary.AppendUvarint(key, uint64(len(n))), n...), byte(kinds[i]))
	}
	if sh, ok := shapes.getBytes(key); ok {
		return sh
	}
	sh := newShape(names, kinds)
	if len(key)-len(names) > maxShapeKey || shapes.len() >= maxShapes {
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

// find returns the shape of names (sorted and distinct) holding kinds;
// neither is retained.
func (sc *shapeCache) find(names []string, kinds []kind) *shape {
	for i := range sc.recent {
		if sh := sc.recent[i].Load(); sh != nil && sh.is(names, kinds) {
			return sh
		}
	}
	sh := internShape(names, kinds)
	sc.remember(sh)
	return sh
}

// packed is one document in stored form: the value of field
// shape.names[i] is vals[shape.at[i]] or sits in words from
// shape.at[i] on, as shape.kinds[i] says. The slices belong to the
// document; the shape does not.
type packed struct {
	shape *shape
	vals  []any
	words []uint64
}

// alloc returns an empty document of shape sh.
func (sh *shape) alloc() packed {
	p := packed{shape: sh}
	if sh.nvals > 0 {
		p.vals = make([]any, sh.nvals)
	}
	if sh.nwords > 0 {
		p.words = make([]uint64, sh.nwords)
	}
	return p
}

// scalarAt returns the words of slot i, which does not hold kindAny.
func (p *packed) scalarAt(i int) scalar {
	at, k := p.shape.at[i], p.shape.kinds[i]
	s := scalar{kind: k, w0: p.words[at]}
	if k == kindTime {
		s.w1 = p.words[at+1]
	}
	return s
}

// codeAt returns the table's value of slot i, which holds kindCode.
func (p *packed) codeAt(i int) *internValue {
	return p.shape.interns[i].value(p.code(p.shape.at[i]))
}

// code returns the code at byte at of the words.
func (p *packed) code(at int32) uint8 { return uint8(p.words[at>>3] >> (at & 7 * 8)) }

// setCode writes c at byte at of the words of a document being built.
func (p *packed) setCode(at int32, c uint8) { p.words[at>>3] |= uint64(c) << (at & 7 * 8) }

// slot returns the value of slot i, boxing it when it sits in words;
// a coded string is its table's shared box.
func (p *packed) slot(i int) any {
	switch p.shape.kinds[i] {
	case kindAny:
		return p.vals[p.shape.at[i]]
	case kindCode:
		return p.codeAt(i).box
	}
	return p.scalarAt(i).box()
}

// kindOf returns the kind a slot whose field's table is f holds v as,
// and v as put takes it: for kindCode, v's value in the table, which
// takes v if it is new and the table has room; v itself otherwise.
func kindOf(f *internField, v any) (kind, any) {
	if s, ok := v.(string); ok {
		if iv := f.code(s, v); iv != nil {
			return kindCode, iv
		}
		return kindAny, v
	}
	return scalarOf(v).kind, v
}

// put writes v, as kindOf returned it, into slot i of a document being
// built, whose shape has the kind kindOf returned there.
func (p *packed) put(i int, v any) {
	at := p.shape.at[i]
	switch p.shape.kinds[i] {
	case kindAny:
		p.vals[at] = v
	case kindCode:
		p.setCode(at, v.(*internValue).code)
	default:
		s := scalarOf(v)
		p.words[at] = s.w0
		if s.kind == kindTime {
			p.words[at+1] = s.w1
		}
	}
}

// copySlot copies slot j of src into slot i of a document being built,
// which holds the same kind there.
func (p *packed) copySlot(i int, src *packed, j int) {
	at, from := p.shape.at[i], src.shape.at[j]
	switch p.shape.kinds[i] {
	case kindAny:
		p.vals[at] = src.vals[from]
	case kindCode:
		p.setCode(at, src.code(from))
	case kindTime:
		copy(p.words[at:at+2], src.words[from:from+2])
	default:
		p.words[at] = src.words[from]
	}
}

// id returns the document's _id, "" when it has no string one.
func (p *packed) id() string {
	if a := p.shape.idAt; a >= 0 {
		s, _ := p.vals[a].(string)
		return s
	}
	return ""
}

// pack returns the stored form of d with id as its _id, whatever d
// holds there. Maps and slices are deep copies when clone is set and
// d's own otherwise; d itself is only read.
func (sc *shapeCache) pack(d Doc, id string, clone bool) packed {
	n := len(d)
	if _, hasID := d[IDField]; !hasID {
		n++
	}
	// The values in shape order, gathered while a shape is matched.
	var buf [24]any
	var vals []any
	var sh *shape
	for i := range sc.recent {
		// A shape of n names, each of them the id or a field of d of the
		// slot's kind, has exactly d's fields and the id.
		if c := sc.recent[i].Load(); c != nil && len(c.names) == n {
			if vals = gather(c, d, id, buf[:0]); vals != nil {
				sh = c
				break
			}
		}
	}
	if sh == nil {
		names := make([]string, 0, n)
		for k := range d {
			names = append(names, k)
		}
		if len(names) < n {
			names = append(names, IDField)
		}
		slices.Sort(names)
		kinds := make([]kind, n)
		for i, name := range names {
			if name != IDField {
				kinds[i], _ = kindOf(fieldNamed(name), d[name])
			}
		}
		sh = internShape(names, kinds)
		sc.remember(sh)
		vals = gather(sh, d, id, buf[:0])
	}
	p := sh.alloc()
	for i, v := range vals {
		if clone {
			v = cloneValue(v)
		}
		p.put(i, v)
	}
	clear(vals)
	return p
}

// gather appends to vals, in sh's order, id and d's other values as
// put takes them, or returns nil when d lacks one of sh's fields other
// than the id or holds one of another kind.
func gather(sh *shape, d Doc, id string, vals []any) []any {
	for i, name := range sh.names {
		v, ok := d[name]
		if name == IDField {
			if sh.kinds[i] != kindAny {
				return nil
			}
			if v != id { // else d's own boxed copy serves
				v = id
			}
		} else if !ok {
			return nil
		} else {
			var k kind
			if k, v = kindOf(sh.interns[i], v); k != sh.kinds[i] {
				return nil
			}
		}
		vals = append(vals, v)
	}
	return vals
}

// get returns the value of a field and whether the document has it.
func (p *packed) get(name string) (any, bool) {
	if i := p.shape.index(name); i >= 0 {
		return p.slot(i), true
	}
	return nil, false
}

// value is get for callers to whom an absent field reads as nil.
func (p *packed) value(name string) any {
	v, _ := p.get(name)
	return v
}

// set merges deep copies of fields into the document, the _id
// excepted. The document's slices are never written: rows handed out
// by earlier reads alias them (see Row), and an update is rare where a
// read is not, so the update pays for new ones — of the same shape when
// the document has every field with values of the same kinds, of the
// shape that has the new fields and kinds otherwise — which take the
// old ones' place.
func (p *packed) set(sc *shapeCache, fields Doc) {
	names := slices.Clone(p.shape.names)
	for k := range fields {
		if k != IDField && p.shape.index(k) < 0 {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	kinds := make([]kind, len(names))
	// vals is each given field's value as put takes it; from is, for
	// every other field, its slot in the old shape (-1 for a given one).
	vals := make([]any, len(names))
	from := make([]int, len(names))
	for i, name := range names {
		if v, ok := fields[name]; ok && name != IDField {
			kinds[i], vals[i] = kindOf(fieldNamed(name), cloneValue(v))
			from[i] = -1
		} else {
			from[i] = p.shape.index(name)
			kinds[i] = p.shape.kinds[from[i]]
		}
	}
	next := sc.find(names, kinds).alloc()
	for i, j := range from {
		if j < 0 {
			next.put(i, vals[i])
		} else {
			next.copySlot(i, p, j)
		}
	}
	*p = next
}

// unset removes fields from the document, the _id excepted; removing
// any it has moves it to the shape without them.
func (p *packed) unset(sc *shapeCache, fields []string) {
	var names []string
	var kinds []kind
	for i, name := range p.shape.names {
		if name == IDField || !slices.Contains(fields, name) {
			names, kinds = append(names, name), append(kinds, p.shape.kinds[i])
		}
	}
	if len(names) == len(p.shape.names) {
		return
	}
	next := sc.find(names, kinds).alloc()
	for i, name := range names {
		next.copySlot(i, p, p.shape.index(name))
	}
	*p = next
}
