package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbancivics/goflow/internal/jsonenc"
)

// Document codec: the one binary encoding of Doc and Mutation, used
// for WAL record payloads (and through them replication batches) and
// for snapshot files (persist.go). DESIGN.md §9 "Document codec" has
// the rationale; the layout is
//
//	mutation  = 0x00 version op str(collection) str(id) body
//	body      = doc                      insert (the document), update (the fields)
//	          | uvarint(n) n*doc         insert-many
//	          | uvarint(n) n*str         unset, ensure-index (the names)
//	          |                          delete, drop
//	doc       = uvarint(n) n*(str(key) value), keys strictly ascending
//	str       = uvarint(len<<1) bytes    first use in this record: takes the next dictionary index
//	          | uvarint(index<<1|1)      every later use
//	value     = tag [operand]            see the tag constants
//
// All varints are minimal-length. The dictionary is per record, so
// every record decodes on its own. The decoder accepts exactly what
// the encoder can emit (sorted keys, no repeated literal, no padded
// varint, no trailing byte): a payload that decodes re-encodes to
// itself.

const (
	// codecMarker opens every payload. A gob stream starts with the
	// non-zero length of its first message, so the first byte alone
	// tells a legacy record from a current one.
	codecMarker  = 0x00
	codecVersion = 1
)

// Value tags: the closed set of dynamic types a document may hold.
const (
	tagNil     byte = iota
	tagFalse        // bool
	tagTrue         // bool
	tagInt          // int: zigzag varint
	tagInt64        // int64: zigzag varint
	tagFloat64      // float64: 8 bytes, IEEE 754 bits little-endian
	tagString       // string: str
	tagBytes        // []byte: uvarint(len) bytes
	tagTime         // time.Time: zigzag(unix s) uvarint(ns) zigzag(zone offset s); no monotonic reading, no zone name
	tagMap          // map[string]any: doc
	tagSlice        // []any: uvarint(n) n*value
)

// Errors of the codec, matched with errors.Is.
var (
	// ErrUnsupportedValue: a document holds a value whose dynamic type
	// is outside the tag set. Raised while logging, so the mutation is
	// refused before it is applied.
	ErrUnsupportedValue = errors.New("docstore: value type outside the document codec")
	// ErrCorrupt: bytes that are not a well-formed encoding.
	ErrCorrupt = errors.New("docstore: corrupt encoding")
	// ErrCodecVersion: a well-formed header of a version this reader
	// does not know (written by a newer binary).
	ErrCodecVersion = errors.New("docstore: unknown codec version")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encoder holds the per-record state of one encoding: output, string
// dictionary and key-sorting scratch.
type encoder struct {
	buf  []byte
	dict map[string]uint64
	keys []string // a stack: each nested map sorts its keys above its parent's
	prev []string // the sorted keys of the last map encoded, kept across records
}

var encoderPool = sync.Pool{New: func() any { return &encoder{dict: make(map[string]uint64)} }}

func getEncoder() *encoder { return encoderPool.Get().(*encoder) }

func (e *encoder) reset() {
	e.buf = e.buf[:0]
	clear(e.dict)
}

func (e *encoder) release() {
	e.reset()
	clear(e.keys[:cap(e.keys)])
	encoderPool.Put(e)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	if i, ok := e.dict[s]; ok {
		e.uvarint(i<<1 | 1)
		return
	}
	e.dict[s] = uint64(len(e.dict))
	e.uvarint(uint64(len(s)) << 1)
	e.buf = append(e.buf, s...)
}

// packed writes a document from its stored form, whose names are
// already in the order a doc is written in: the same bytes as doc gives
// for the same document, with no key to collect or sort, its numbers,
// bools and times written from their words and its coded strings from
// their tables.
func (e *encoder) packed(p *packed) error {
	sh := p.shape
	e.uvarint(uint64(len(sh.names)))
	for i, k := range sh.names {
		e.str(k)
		switch sh.kinds[i] {
		case kindAny:
			if err := e.value(p.vals[sh.at[i]]); err != nil {
				return fmt.Errorf("field %q: %w", k, err)
			}
		case kindCode:
			e.buf = append(e.buf, tagString)
			e.str(p.codeAt(i).s)
		default:
			e.scalar(p.scalarAt(i))
		}
	}
	return nil
}

// scalar writes a value held in words, tag and operand.
func (e *encoder) scalar(s scalar) {
	switch s.kind {
	case kindFloat64:
		e.buf = binary.LittleEndian.AppendUint64(append(e.buf, tagFloat64), s.w0)
	case kindInt:
		e.buf = append(e.buf, tagInt)
		e.varint(int64(s.w0))
	case kindInt64:
		e.buf = append(e.buf, tagInt64)
		e.varint(int64(s.w0))
	case kindBool:
		e.buf = append(e.buf, tagFalse+byte(s.w0))
	case kindTime:
		sec, nsec, off := s.timeParts()
		e.buf = append(e.buf, tagTime)
		e.varint(sec)
		e.uvarint(uint64(nsec))
		e.varint(off)
	}
}

// doc writes a document held as a map: update fields, nested values,
// and the documents of a mutation built outside the store.
func (e *encoder) doc(d Doc) error {
	// Maps met one after another mostly share one field set: when the
	// last map's sorted keys are exactly d's, nothing is sorted.
	base := len(e.keys)
	if hasExactly(d, e.prev) {
		e.keys = append(e.keys, e.prev...)
	} else {
		for k := range d {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys[base:])
		e.prev = append(e.prev[:0], e.keys[base:]...)
	}
	keys := e.keys[base:]
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		if err := e.value(d[k]); err != nil {
			return fmt.Errorf("field %q: %w", k, err)
		}
	}
	e.keys = e.keys[:base]
	return nil
}

// hasExactly reports whether d's key set is keys (which are distinct).
func hasExactly(d Doc, keys []string) bool {
	if len(d) != len(keys) {
		return false
	}
	for _, k := range keys {
		if _, ok := d[k]; !ok {
			return false
		}
	}
	return true
}

func (e *encoder) value(v any) error {
	switch t := v.(type) {
	case nil:
		e.buf = append(e.buf, tagNil)
	case string:
		e.buf = append(e.buf, tagString)
		e.str(t)
	case []byte:
		e.buf = append(e.buf, tagBytes)
		e.uvarint(uint64(len(t)))
		e.buf = append(e.buf, t...)
	case map[string]any:
		e.buf = append(e.buf, tagMap)
		return e.doc(t)
	case []any:
		e.buf = append(e.buf, tagSlice)
		e.uvarint(uint64(len(t)))
		for i, el := range t {
			if err := e.value(el); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	default:
		if s := scalarOf(v); s.kind != kindAny {
			e.scalar(s)
			return nil
		}
		tm, ok := v.(time.Time) // one whose zone offset words cannot hold
		if !ok {
			return fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
		}
		_, off := tm.Zone()
		e.buf = append(e.buf, tagTime)
		e.varint(tm.Unix())
		e.uvarint(uint64(tm.Nanosecond()))
		e.varint(int64(off))
	}
	return nil
}

// inserted writes document i of an insert or insert-many, from
// whichever form m carries its documents in.
func (e *encoder) inserted(m *Mutation, i int) error {
	switch {
	case m.packed != nil:
		return e.packed(&m.packed[i])
	case m.Op == OpInsert:
		return e.doc(m.Doc)
	default:
		return e.doc(m.Docs[i])
	}
}

func (e *encoder) mutation(m *Mutation) error {
	e.buf = append(e.buf, codecMarker, codecVersion, byte(m.Op))
	e.str(m.Collection)
	e.str(m.ID)
	switch m.Op {
	case OpInsert:
		return e.inserted(m, 0)
	case OpUpdate:
		return e.doc(m.Fields)
	case OpInsertMany:
		n := len(m.Docs)
		if m.packed != nil {
			n = len(m.packed)
		}
		e.uvarint(uint64(n))
		for i := 0; i < n; i++ {
			if err := e.inserted(m, i); err != nil {
				return fmt.Errorf("document %d: %w", i, err)
			}
		}
	case OpUnset, OpEnsureIndex:
		e.uvarint(uint64(len(m.Names)))
		for _, n := range m.Names {
			e.str(n)
		}
	case OpDelete, OpDrop:
	default:
		return fmt.Errorf("docstore: unknown mutation op %d", m.Op)
	}
	return nil
}

// Interning. A recovered store holds the same few field names and
// enumeration-like values (app, mode, provider, zone …) once per
// document; the decoder shares one copy of each instead, and a stored
// document holds such a value as its one-byte code in its field's
// table (shape.go, kindCode). The tables are process-wide caches,
// built lazily and read without locks (copy-on-write), bounded by the
// three constants below: a field name past the first maxInternFields,
// a field's value past its first maxInternValues distinct ones, or any
// string longer than maxInternLen is simply allocated per document as
// before. A field whose values overflow (ids, free text) is closed: it
// keeps every code it gave out, and its new values are not tracked.
// The _id is never tracked: each document has its own.
const (
	maxInternFields = 256
	maxInternValues = 256
	maxInternLen    = 64
)

// cowMap is a string-keyed map that is replaced, never modified, on
// insert, so readers need no lock.
type cowMap[V any] struct {
	mu sync.Mutex // serialises writers
	m  atomic.Pointer[map[string]V]
}

// getBytes looks up a key still in the input buffer; the conversion
// in the index expression does not allocate.
func (c *cowMap[V]) getBytes(b []byte) (v V, ok bool) {
	if m := c.m.Load(); m != nil {
		v, ok = (*m)[string(b)]
	}
	return v, ok
}

func (c *cowMap[V]) get(s string) (v V, ok bool) {
	if m := c.m.Load(); m != nil {
		v, ok = (*m)[s]
	}
	return v, ok
}

func (c *cowMap[V]) len() int {
	if m := c.m.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// add stores v under s unless s is present (the stored value wins) or
// the map already holds limit entries (full is reported, and v
// returned).
func (c *cowMap[V]) add(s string, v V, limit int) (stored V, full bool) {
	if stored, full = c.addFunc(s, limit, func(int) V { return v }); full {
		return v, true
	}
	return stored, false
}

// addFunc is add of the value made by newV, which is called with the
// number of entries before it, under the writers' lock and before the
// map that holds its value is published. A full map makes nothing and
// returns the zero value.
func (c *cowMap[V]) addFunc(s string, limit int, newV func(n int) V) (stored V, full bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[string]V
	if m := c.m.Load(); m != nil {
		old = *m
	}
	if cur, ok := old[s]; ok {
		return cur, false
	}
	if len(old) >= limit {
		return stored, true
	}
	v := newV(len(old))
	next := make(map[string]V, len(old)+1)
	for k, ov := range old {
		next[k] = ov
	}
	next[s] = v
	c.m.Store(&next)
	return v, false
}

// internField is one known field name and the string values seen under
// it, each held already boxed so that storing it in a document copies
// an interface word pair instead of allocating a string header, and
// numbered in the order the table met them. The decoder and
// Collection's writes (pack) share the tables, so a document inserted
// live costs what a recovered one does.
type internField struct {
	name   string
	values cowMap[*internValue]
	// codes is the values by code, allocated with the first. A value is
	// written to it, once, before the map that hands out its code is
	// published: whoever holds a code finds its value here, without a
	// lock.
	codes  *[maxInternValues]*internValue
	closed atomic.Bool // maxInternValues codes given out: new values are not tracked
}

// internValue is one value of a field's table.
type internValue struct {
	s      string
	box    any    // s as an interface value, shared by every document holding it
	quoted string // s as Row.AppendJSON writes it
	code   uint8  // the value's index in the table's codes
}

var internFields cowMap[*internField]

// fieldFor returns the shared entry for a field name, or nil when the
// name is too long or the table is full.
func fieldFor(raw []byte) *internField {
	if f, ok := internFields.getBytes(raw); ok {
		return f
	}
	if len(raw) > maxInternLen {
		return nil
	}
	return addField(string(raw))
}

// fieldNamed is fieldFor for a name held as a string.
func fieldNamed(name string) *internField {
	if f, ok := internFields.get(name); ok {
		return f
	}
	if len(name) > maxInternLen {
		return nil
	}
	return addField(name)
}

func addField(name string) *internField {
	f, full := internFields.add(name, &internField{name: name}, maxInternFields)
	if full {
		return nil
	}
	return f
}

// InternClosedFields reports how many fields have given out all their
// codes. A closed field keeps the values it has; a value it meets for
// the first time is stored boxed, 16 bytes and its own string per
// document instead of one byte, so a rise of this count explains a
// rise in the bytes a stored document weighs.
func InternClosedFields() int {
	n := 0
	if m := internFields.m.Load(); m != nil {
		for _, f := range *m {
			if f.closed.Load() {
				n++
			}
		}
	}
	return n
}

// tracks reports whether the field's table may hold a value of n
// bytes.
func (f *internField) tracks(n int) bool {
	return f != nil && n <= maxInternLen && f.name != IDField
}

// code returns the table's value s, adding v, which holds s, when s is
// new and the table has room; nil when the table does not track s.
func (f *internField) code(s string, v any) *internValue {
	if !f.tracks(len(s)) {
		return nil
	}
	if iv, ok := f.values.get(s); ok {
		return iv
	}
	return f.add(s, v)
}

// codeBytes is code for a value still in the input buffer, which is
// only copied when the table takes it.
func (f *internField) codeBytes(raw []byte) *internValue {
	if !f.tracks(len(raw)) {
		return nil
	}
	if iv, ok := f.values.getBytes(raw); ok {
		return iv
	}
	s := string(raw)
	return f.add(s, s)
}

// add puts s, boxed in v, in the table under the next code, unless s
// is there already; nil when the table is closed.
func (f *internField) add(s string, v any) *internValue {
	if f.closed.Load() {
		return nil
	}
	iv, full := f.values.addFunc(s, maxInternValues, func(n int) *internValue {
		iv := &internValue{s: s, box: v, quoted: string(jsonenc.AppendString(nil, s)), code: uint8(n)}
		if f.codes == nil {
			f.codes = new([maxInternValues]*internValue)
		}
		f.codes[n] = iv
		return iv
	})
	if full {
		f.closed.Store(true)
	}
	return iv
}

// value returns the value whose code is c.
func (f *internField) value(c uint8) *internValue { return f.codes[c] }

// dictEntry is one string of the record being decoded, with the shared
// forms it has been resolved to so far.
type dictEntry struct {
	s     string
	field *internField // once used as a field name
	boxed any          // once used as a value
	// coded is the value in the table of in, the field the value was
	// last coded under (nil when that table does not track it).
	in    *internField
	coded *internValue
}

// codeIn returns the entry's value in f's table, nil when f does not
// track it.
func (e *dictEntry) codeIn(f *internField) *internValue {
	if e.in != f {
		e.in, e.coded = f, f.code(e.s, e.boxed)
	}
	return e.coded
}

// decoder holds the per-record state of one decoding. The first
// failure sticks in err and empties the input, so the readers return
// zero values from then on and callers check once.
type decoder struct {
	b    []byte // unread input
	err  error
	dict []dictEntry
	seen map[string]struct{} // literals so far: a repeat should have been an index
	// shapes, when set, has the documents of an insert decoded straight
	// into stored form (see stored) and finds them their shapes; names,
	// kinds, vals, words and codes are the scratch a document is
	// gathered in.
	shapes *shapeCache
	names  []string
	kinds  []kind
	vals   []any
	words  []uint64
	codes  []uint8
}

var decoderPool = sync.Pool{New: func() any { return &decoder{seen: make(map[string]struct{})} }}

func getDecoder(b []byte) *decoder {
	d := decoderPool.Get().(*decoder)
	d.b = b
	return d
}

func (d *decoder) release() {
	clear(d.dict)
	clear(d.seen)
	clear(d.names)
	*d = decoder{dict: d.dict[:0], seen: d.seen, names: d.names[:0], kinds: d.kinds[:0], vals: d.vals[:0], words: d.words[:0], codes: d.codes[:0]}
	decoderPool.Put(d)
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
	d.b = nil
}

// take returns the next n bytes, which the caller has checked are there.
func (d *decoder) take(n uint64) []byte {
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("truncated, overlong or padded varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count (or a byte length, minBytes 1) and
// checks it against the input left, every element taking at least
// minBytes, before anything is sized by it.
func (d *decoder) count(minBytes int) uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return n
}

// String positions: what a string is read as decides what it shares.
const (
	posPlain = iota // ids, unset names: a private copy
	posKey          // field and collection names: the field table
	posValue        // string values: the enclosing field's value table
)

// str reads one string and resolves it for its position (f is the
// enclosing field of a posValue). The entry is valid until the next
// call.
func (d *decoder) str(pos int, f *internField) *dictEntry {
	u := d.uvarint()
	var e *dictEntry
	switch {
	case u&1 == 1 && u>>1 < uint64(len(d.dict)):
		e = &d.dict[u>>1]
	case u&1 == 1 || u>>1 > uint64(len(d.b)):
		d.fail("string index or length %d outside the dictionary (%d) or the input", u>>1, len(d.dict))
		return &dictEntry{}
	default:
		raw := d.take(u >> 1)
		if _, dup := d.seen[string(raw)]; dup {
			d.fail("literal %q repeated", raw)
			return &dictEntry{}
		}
		d.dict = append(d.dict, dictEntry{})
		e = &d.dict[len(d.dict)-1]
		switch pos {
		case posKey:
			if e.field = fieldFor(raw); e.field != nil {
				e.s = e.field.name
			}
		case posValue:
			if e.in, e.coded = f, f.codeBytes(raw); e.coded != nil {
				e.s, e.boxed = e.coded.s, e.coded.box
			} else {
				e.s = string(raw)
				e.boxed = e.s
			}
		}
		if pos == posPlain || (pos == posKey && e.field == nil) {
			e.s = string(raw)
		}
		d.seen[e.s] = struct{}{}
	}
	if pos == posValue && e.boxed == nil {
		e.boxed = e.s // first met as a name
	}
	return e
}

func (d *decoder) doc() Doc {
	n := d.count(2)
	out := make(Doc, n)
	prev := ""
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str(posKey, nil)
		if i > 0 && k.s <= prev {
			d.fail("field %q out of order after %q", k.s, prev)
		}
		prev = k.s
		out[prev] = d.value(k.field)
	}
	return out
}

// stored reads a document into stored form. Its keys arrive in the
// order a shape keeps them, so they are the shape's names as read: no
// map is built and nothing is sorted. Numbers, bools and times go
// straight into words, unboxed, and a string its field's table codes
// goes in as its code. It applies every check doc does.
func (d *decoder) stored() packed {
	n := d.count(2)
	d.names, d.kinds, d.vals, d.words, d.codes = d.names[:0], d.kinds[:0], d.vals[:0], d.words[:0], d.codes[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str(posKey, nil)
		if i > 0 && k.s <= d.names[i-1] {
			d.fail("field %q out of order after %q", k.s, d.names[i-1])
		}
		d.names = append(d.names, k.s)
		f := k.field
		if s, ok := d.scalar(); ok {
			d.kinds, d.words = append(d.kinds, s.kind), append(d.words, s.w0)
			if s.kind == kindTime {
				d.words = append(d.words, s.w1)
			}
		} else if len(d.b) > 0 && d.b[0] == tagString && f.tracks(0) { // a string f may code
			d.take(1)
			if v := d.str(posValue, f); d.err == nil && v.codeIn(f) != nil {
				d.kinds, d.codes = append(d.kinds, kindCode), append(d.codes, v.coded.code)
			} else {
				d.kinds, d.vals = append(d.kinds, kindAny), append(d.vals, v.boxed)
			}
		} else {
			d.kinds, d.vals = append(d.kinds, kindAny), append(d.vals, d.value(f))
		}
	}
	defer clear(d.vals)
	if d.err != nil {
		return packed{}
	}
	p := d.shapes.find(d.names, d.kinds).alloc()
	copy(p.vals, d.vals)
	copy(p.words, d.words)
	for j, c := range d.codes {
		p.setCode(p.shape.codesAt+int32(j), c)
	}
	return p
}

// scalar reads one tagged value that words hold, unless the next tag
// is of another kind, which it leaves unread.
func (d *decoder) scalar() (scalar, bool) {
	if len(d.b) == 0 {
		return scalar{}, false
	}
	switch d.b[0] {
	case tagFalse, tagTrue:
		return scalar{kind: kindBool, w0: uint64(d.take(1)[0] - tagFalse)}, true
	case tagInt:
		d.take(1)
		v := d.varint()
		if int64(int(v)) != v {
			d.fail("int %d overflows this platform", v)
		}
		return scalar{kind: kindInt, w0: uint64(v)}, true
	case tagInt64:
		d.take(1)
		return scalar{kind: kindInt64, w0: uint64(d.varint())}, true
	case tagFloat64:
		d.take(1)
		if len(d.b) < 8 {
			d.fail("truncated float64")
			return scalar{}, true
		}
		return scalar{kind: kindFloat64, w0: binary.LittleEndian.Uint64(d.take(8))}, true
	case tagTime:
		b := d.b
		d.take(1)
		sec, nsec, off := d.varint(), d.uvarint(), d.varint()
		if nsec >= 1e9 || int64(int(off)) != off {
			d.fail("time out of range (ns %d, zone offset %d)", nsec, off)
			return scalar{}, true
		}
		if int64(int32(off)) != off {
			d.b = b // a zone offset words cannot hold: value reads it
			return scalar{}, false
		}
		return scalar{kind: kindTime, w0: uint64(sec), w1: nsec | uint64(uint32(off))<<32}, true
	}
	return scalar{}, false
}

// value reads one tagged value; f is the field it sits under, for
// string interning (elements of a slice inherit the slice's field).
func (d *decoder) value(f *internField) any {
	if len(d.b) == 0 {
		d.fail("truncated")
		return nil
	}
	if s, ok := d.scalar(); ok {
		if d.err != nil {
			return nil
		}
		return s.box()
	}
	switch tag := d.take(1)[0]; tag {
	case tagNil:
		return nil
	case tagString:
		return d.str(posValue, f).boxed
	case tagBytes:
		return bytes.Clone(d.take(d.count(1)))
	case tagTime: // a zone offset words cannot hold, checked by scalar
		sec, nsec, off := d.varint(), d.uvarint(), d.varint()
		return time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(off)))
	case tagMap:
		return d.doc()
	case tagSlice:
		out := make([]any, d.count(1))
		for i := 0; i < len(out) && d.err == nil; i++ {
			out[i] = d.value(f)
		}
		return out
	default:
		d.fail("unknown value tag %d", tag)
		return nil
	}
}

func (d *decoder) mutation() (*Mutation, error) {
	if len(d.b) < 2 {
		return nil, corruptf("truncated")
	}
	if v := d.b[0]; v != codecVersion {
		return nil, fmt.Errorf("%w: mutation version %d", ErrCodecVersion, v)
	}
	m := &Mutation{Op: MutationOp(d.b[1]), format: formatBin}
	d.b = d.b[2:]
	m.Collection = d.str(posKey, nil).s
	m.ID = d.str(posPlain, nil).s
	switch m.Op {
	case OpInsert:
		if d.shapes != nil {
			m.packed = []packed{d.stored()}
		} else {
			m.Doc = d.doc()
		}
	case OpUpdate:
		m.Fields = d.doc()
	case OpInsertMany:
		if n := int(d.count(1)); d.shapes != nil {
			m.packed = make([]packed, n)
			for i := 0; i < n && d.err == nil; i++ {
				m.packed[i] = d.stored()
			}
		} else {
			m.Docs = make([]Doc, n)
			for i := 0; i < n && d.err == nil; i++ {
				m.Docs[i] = d.doc()
			}
		}
	case OpUnset, OpEnsureIndex:
		m.Names = make([]string, d.count(1))
		for i := 0; i < len(m.Names) && d.err == nil; i++ {
			m.Names[i] = d.str(posPlain, nil).s
		}
	case OpDelete, OpDrop:
	default:
		d.fail("unknown mutation op %d", m.Op)
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return m, d.err
}
