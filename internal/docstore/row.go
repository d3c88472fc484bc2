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
// its value slice — instead of rebuilt as a Doc. A stored value slice
// is never written after its insert (an update swaps in a new one, see
// packed.set), so a Row stays valid, and keeps reading the document as
// it was when the read ran, after the collection's lock is released and
// whatever happens to the document later. In return a Row is read-only:
// a map or slice that Value returns is the stored one and must not be
// modified. Doc gives a copy the caller owns; AppendJSON is the way to
// the wire that builds nothing in between. DESIGN.md §9 "Way out".
type Row struct{ p packed }

// Value returns the value of a field, nil when the row has no such
// field.
func (r Row) Value(name string) any { return r.p.value(name) }

// Names returns the row's field names in ascending order. The slice is
// shared with every row of the same shape.
func (r Row) Names() []string { return r.p.shape.names }

// Doc returns the row as a Doc the caller owns — nested maps and slices
// are deep copies — restricted to the projection's fields plus the _id
// when a projection is given.
func (r Row) Doc(projection []string) Doc {
	if len(projection) == 0 {
		out := make(Doc, len(r.p.vals))
		for i, name := range r.p.shape.names {
			out[name] = cloneValue(r.p.vals[i])
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
		if dst, err = appendJSONValue(dst, r.p.vals[i]); err != nil {
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

// appendJSONValue appends v as encoding/json encodes it. The kinds an
// observation is made of are written directly, by jsonenc's rules for
// the scalars; any other kind is left to the encoder.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return jsonenc.AppendString(dst, t), nil
	case bool:
		return strconv.AppendBool(dst, t), nil
	case int:
		return strconv.AppendInt(dst, int64(t), 10), nil
	case int64:
		return strconv.AppendInt(dst, t, 10), nil
	case float64:
		return jsonenc.AppendFloat(dst, t)
	case time.Time:
		return jsonenc.AppendTime(dst, t)
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
		return FieldValues{slots: slots.([]int), vals: r.p.vals}
	}
	slots := make([]int, len(f.names))
	for i, name := range f.names {
		slots[i] = sh.index(name)
	}
	if sh.quoted != nil {
		f.slots.Store(sh, slots)
	}
	return FieldValues{slots: slots, vals: r.p.vals}
}

// FieldValues is the values one row holds under the names of a Fields
// list.
type FieldValues struct {
	slots []int
	vals  []any
}

// At returns the value of the list's i-th name, nil when the row has no
// such field. Like Row.Value it returns the stored value.
func (v FieldValues) At(i int) any {
	if s := v.slots[i]; s >= 0 {
		return v.vals[s]
	}
	return nil
}
