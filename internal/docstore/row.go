package docstore

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/jsonenc"
)

// Row is one stored document handed out as it is stored — its shape and
// its two slices — instead of rebuilt as a Doc. A stored document's
// slices are never written after its insert (an update swaps in new
// ones, see packed.set), so a Row stays valid, and keeps reading the
// document as it was when the read ran, after the collection's lock is
// released and whatever happens to the document later. In return a Row
// is read-only: a map or slice that Value returns is the stored one and
// must not be modified. Doc gives a copy the caller owns; AppendJSON is
// the way to the wire that builds nothing in between. DESIGN.md §9
// "Way out".
type Row struct{ p packed }

// Value returns the value of a field, nil when the row has no such
// field. A number, bool or time is boxed for the call; a time reads in
// its canonical zone (see scalar.time).
func (r Row) Value(name string) any { return r.p.value(name) }

// Names returns the row's field names in ascending order. The slice is
// shared with every row of the same shape.
func (r Row) Names() []string { return r.p.shape.names }

// Doc returns the row as a Doc the caller owns — nested maps and slices
// are deep copies — restricted to the projection's fields plus the _id
// when a projection is given.
func (r Row) Doc(projection []string) Doc {
	if len(projection) == 0 {
		out := make(Doc, len(r.p.shape.names))
		for i, name := range r.p.shape.names {
			out[name] = cloneValue(r.p.slot(i))
		}
		return out
	}
	out := Doc{IDField: r.p.value(IDField)}
	for _, f := range projection {
		if v, ok := r.p.get(f); ok {
			out[f] = cloneValue(v)
		}
	}
	return out
}

// rowDocs copies rows out as documents. An unlimited read copies every
// match, which can dwarf the scan that found them, so the copy honors
// the deadline at the scan's cadence.
func rowDocs(ctx context.Context, rows []Row, projection []string) ([]Doc, error) {
	docs := make([]Doc, len(rows))
	for i, r := range rows {
		if i&(scanCtxCheckEvery-1) == scanCtxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		docs[i] = r.Doc(projection)
	}
	return docs, nil
}

// AppendJSON appends the row as a JSON object, restricted to the fields
// keep accepts (nil keeps all), and returns the extended buffer. The
// bytes are exactly those encoding/json writes for the same fields of
// r.Doc(nil) — names in ascending order, which is shape order; its
// number and time formats; its HTML-safe string escaping — without the
// map, the key sort or the reflection. TestRowAppendJSONMatchesEncodingJSON
// and FuzzRowAppendJSON hold it to that.
func (r Row) AppendJSON(dst []byte, keep func(name string) bool) ([]byte, error) {
	sh := r.p.shape
	dst = append(dst, '{')
	first := true
	for i, name := range sh.names {
		if keep != nil && !keep(name) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		if sh.quoted != nil {
			dst = append(dst, sh.quoted[i]...)
		} else {
			dst = append(jsonenc.AppendString(dst, name), ':')
		}
		var err error
		switch sh.kinds[i] {
		case kindAny:
			dst, err = appendJSONValue(dst, r.p.vals[sh.at[i]])
		case kindCode:
			dst = append(dst, r.p.codeAt(i).quoted...)
		default:
			dst, err = appendJSONScalar(dst, r.p.scalarAt(i))
		}
		if err != nil {
			return dst, fmt.Errorf("field %q: %w", name, err)
		}
	}
	return append(dst, '}'), nil
}

// quoteNames returns each name as AppendJSON writes it: quoted, escaped
// and followed by the colon.
func quoteNames(names []string) []string {
	quoted := make([]string, len(names))
	for i, name := range names {
		quoted[i] = string(append(jsonenc.AppendString(nil, name), ':'))
	}
	return quoted
}

// appendJSONScalar appends a value held in words as encoding/json
// encodes it, by jsonenc's rules, from the words.
func appendJSONScalar(dst []byte, s scalar) ([]byte, error) {
	switch s.kind {
	case kindFloat64:
		return jsonenc.AppendFloat(dst, s.float())
	case kindInt, kindInt64:
		return strconv.AppendInt(dst, int64(s.w0), 10), nil
	case kindBool:
		return strconv.AppendBool(dst, s.w0 != 0), nil
	default:
		return jsonenc.AppendTime(dst, s.time())
	}
}

// appendJSONValue appends v as encoding/json encodes it. The kinds an
// observation is made of are written directly, by jsonenc's rules for
// the scalars; any other kind is left to the encoder.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return jsonenc.AppendString(dst, t), nil
	}
	if s := scalarOf(v); s.kind != kindAny {
		return appendJSONScalar(dst, s)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, raw...), nil
}

// Fields is a fixed list of field names to read out of rows. Where a
// shape keeps them is worked out once per registered shape and
// remembered, so reading the fields of a row costs one lookup and a
// load per field instead of a search of the row's names per field.
// Safe for concurrent use.
type Fields struct {
	names []string
	// slots maps a registered *shape to the slot of each name in it, -1
	// for a name it lacks. Private shapes are resolved per row and not
	// kept, so the map is bounded like the registry.
	slots sync.Map
}

// NewFields returns the list of the given names.
func NewFields(names ...string) *Fields {
	return &Fields{names: slices.Clone(names)}
}

// In returns the list's fields as r holds them.
func (f *Fields) In(r Row) FieldValues {
	sh := r.p.shape
	if slots, ok := f.slots.Load(sh); ok {
		return FieldValues{slots: slots.([]int), p: r.p}
	}
	slots := make([]int, len(f.names))
	for i, name := range f.names {
		slots[i] = sh.index(name)
	}
	if sh.quoted != nil {
		f.slots.Store(sh, slots)
	}
	return FieldValues{slots: slots, p: r.p}
}

// FieldValues is the values one row holds under the names of a Fields
// list. At boxes a number, bool or time for the call; the typed getters
// read it from where the row keeps it.
type FieldValues struct {
	slots []int
	p     packed
}

// At returns the value of the list's i-th name, nil when the row has no
// such field. Like Row.Value it returns the stored value.
func (v FieldValues) At(i int) any {
	if s := v.slots[i]; s >= 0 {
		return v.p.slot(s)
	}
	return nil
}

// Float returns the list's i-th field as a float64 when the row holds
// a float64, an int or an int64 there.
func (v FieldValues) Float(i int) (float64, bool) { return v.p.floatAt(v.slots[i]) }

// Time returns the list's i-th field when the row holds a time there.
func (v FieldValues) Time(i int) (time.Time, bool) { return v.p.timeAt(v.slots[i]) }

// String returns the list's i-th field when the row holds a string
// there.
func (v FieldValues) String(i int) (string, bool) { return v.p.stringAt(v.slots[i]) }

// Bool returns the list's i-th field when the row holds a bool there.
func (v FieldValues) Bool(i int) (bool, bool) { return v.p.boolAt(v.slots[i]) }

// floatAt returns slot i (-1 for none) as a float64 when it holds a
// float64, an int or an int64.
func (p *packed) floatAt(i int) (float64, bool) {
	if i < 0 {
		return 0, false
	}
	switch p.shape.kinds[i] {
	case kindFloat64:
		return p.scalarAt(i).float(), true
	case kindInt, kindInt64:
		return float64(int64(p.scalarAt(i).w0)), true
	}
	return 0, false
}

// timeAt returns slot i (-1 for none) when it holds a time.
func (p *packed) timeAt(i int) (time.Time, bool) {
	if i < 0 {
		return time.Time{}, false
	}
	if p.shape.kinds[i] == kindTime {
		return p.scalarAt(i).time(), true
	}
	t, ok := p.slot(i).(time.Time) // a zone offset words cannot hold
	return t, ok
}

// stringAt returns slot i (-1 for none) when it holds a string.
func (p *packed) stringAt(i int) (string, bool) {
	if i < 0 {
		return "", false
	}
	switch p.shape.kinds[i] {
	case kindCode:
		return p.codeAt(i).s, true
	case kindAny:
		s, ok := p.vals[p.shape.at[i]].(string)
		return s, ok
	}
	return "", false
}

// boolAt returns slot i (-1 for none) when it holds a bool.
func (p *packed) boolAt(i int) (bool, bool) {
	if i < 0 || p.shape.kinds[i] != kindBool {
		return false, false
	}
	return p.scalarAt(i).w0 != 0, true
}
