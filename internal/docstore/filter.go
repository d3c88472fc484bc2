package docstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Filters are documents mapping field names to either a literal value
// (equality) or an operator document:
//
//	{"model": "SAMSUNG GT-I9505"}                      equality
//	{"spl": map[string]any{"$gte": 30.0, "$lt": 60.0}} range
//	{"provider": map[string]any{"$in": []any{"gps"}}}  membership
//	{"loc": map[string]any{"$exists": true}}           presence
//
// Supported operators: $eq, $ne, $gt, $gte, $lt, $lte, $in, $nin,
// $exists, $prefix (string prefix). A top-level "$or" key takes a
// list of filters and matches when any of them does:
//
//	{"$or": []any{
//	    map[string]any{"provider": "gps"},
//	    map[string]any{"accuracyM": map[string]any{"$lt": 20.0}},
//	}}

// Predicate is a filter value evaluated as an arbitrary per-document
// test: {"field": Predicate(f)} matches when f returns true for the
// field's value (nil when the field is absent). Predicates always
// force a full scan — functions cannot be index keys — which also
// makes them the hook of choice for tests that need a deterministically
// slow scan (e.g. blocking inside f until a deadline expires).
type Predicate func(v any) bool

type matcher struct {
	preds []fieldPred
	// docPreds evaluate against the whole document ($or branches).
	docPreds []func(d *packed) bool
}

// fieldPred is one test of a field. Every filter operator tests the
// field's ordering key (see valueKey), which a stored number, bool or
// time gives without being boxed; a Predicate, which is handed the
// value itself, is the one that boxes.
type fieldPred struct {
	field string
	test  func(k valueKey, present bool) bool
	fn    Predicate // instead of test
}

// compileOr compiles {"$or": [filter, filter, ...]}: the document
// matches when any branch matches. Branches are full filters and may
// nest operators (or further $or clauses).
func compileOr(arg any) (func(d *packed) bool, error) {
	list, ok := arg.([]any)
	if !ok || len(list) == 0 {
		return nil, fmt.Errorf("docstore: $or wants a non-empty list of filters, got %T", arg)
	}
	branches := make([]*matcher, 0, len(list))
	for i, e := range list {
		sub, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("docstore: $or branch %d is %T, want a filter document", i, e)
		}
		bm, err := compileFilter(sub)
		if err != nil {
			return nil, fmt.Errorf("$or branch %d: %w", i, err)
		}
		branches = append(branches, bm)
	}
	return func(d *packed) bool {
		for _, b := range branches {
			if b.matches(d) {
				return true
			}
		}
		return false
	}, nil
}

// compileFilter validates operators once so scans do not re-parse.
func compileFilter(filter Doc) (*matcher, error) {
	m := &matcher{}
	for field, cond := range filter {
		if field == "$or" {
			pred, err := compileOr(cond)
			if err != nil {
				return nil, err
			}
			m.docPreds = append(m.docPreds, pred)
			continue
		}
		if pred, isPred := cond.(Predicate); isPred {
			m.preds = append(m.preds, fieldPred{field: field, fn: pred})
			continue
		}
		opDoc, isOp := cond.(map[string]any)
		if !isOp {
			want := keyOf(cond)
			m.preds = append(m.preds, fieldPred{field: field, test: func(k valueKey, present bool) bool {
				return present && compareKeys(k, want) == 0
			}})
			continue
		}
		for op, arg := range opDoc {
			p, err := compileOp(op, arg)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", field, err)
			}
			m.preds = append(m.preds, fieldPred{field: field, test: p})
		}
	}
	return m, nil
}

func compileOp(op string, arg any) (func(k valueKey, present bool) bool, error) {
	// A range operator asks of the field first that it is there, of
	// arg's rank (so ranges do not match across types).
	want := keyOf(arg)
	switch op {
	case "$eq":
		return func(k valueKey, present bool) bool {
			return present && compareKeys(k, want) == 0
		}, nil
	case "$ne":
		return func(k valueKey, present bool) bool {
			return !present || compareKeys(k, want) != 0
		}, nil
	case "$gt":
		return func(k valueKey, present bool) bool {
			return present && k.rank == want.rank && compareKeys(k, want) > 0
		}, nil
	case "$gte":
		return func(k valueKey, present bool) bool {
			return present && k.rank == want.rank && compareKeys(k, want) >= 0
		}, nil
	case "$lt":
		return func(k valueKey, present bool) bool {
			return present && k.rank == want.rank && compareKeys(k, want) < 0
		}, nil
	case "$lte":
		return func(k valueKey, present bool) bool {
			return present && k.rank == want.rank && compareKeys(k, want) <= 0
		}, nil
	case "$in", "$nin":
		list, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("docstore: %s wants a list, got %T", op, arg)
		}
		keys := make([]valueKey, len(list))
		for i, e := range list {
			keys[i] = keyOf(e)
		}
		in := func(k valueKey) bool {
			return slices.ContainsFunc(keys, func(e valueKey) bool { return compareKeys(k, e) == 0 })
		}
		if op == "$in" {
			return func(k valueKey, present bool) bool { return present && in(k) }, nil
		}
		return func(k valueKey, present bool) bool { return !present || !in(k) }, nil
	case "$exists":
		want, ok := arg.(bool)
		if !ok {
			return nil, fmt.Errorf("docstore: $exists wants a bool, got %T", arg)
		}
		return func(_ valueKey, present bool) bool {
			return present == want
		}, nil
	case "$prefix":
		prefix, ok := arg.(string)
		if !ok {
			return nil, fmt.Errorf("docstore: $prefix wants a string, got %T", arg)
		}
		return func(k valueKey, present bool) bool {
			s, isStr := k.v.(string)
			return present && isStr && strings.HasPrefix(s, prefix)
		}, nil
	default:
		return nil, fmt.Errorf("docstore: unknown operator %q", op)
	}
}

func (m *matcher) matches(d *packed) bool {
	for _, fp := range m.preds {
		if fp.fn != nil {
			if !fp.fn(d.value(fp.field)) {
				return false
			}
			continue
		}
		k, present := d.key(fp.field)
		if !fp.test(k, present) {
			return false
		}
	}
	for _, dp := range m.docPreds {
		if !dp(d) {
			return false
		}
	}
	return true
}

// valueKey is a value as the store orders it: its rank among the kinds
// (missing < nil < bool < number < time < string < other) and what
// orders it within its rank. Numbers compare numerically across
// int/float widths, so a number's key is its float64; times compare by
// instant, as time.Time.Before does; strings lexically; values of
// other kinds compare equal, so sorts stay stable. A stored number,
// bool or time gives its key from its words (packed.key), without
// being boxed.
type valueKey struct {
	v any // rank 4: the string
	// x is, for ranks 1 and 2, the number's float64 bits (false 0, true
	// 1) and, for rank 3, the time's seconds since the year 1 — the form
	// time.Time.Before compares — whose nanoseconds are nsec.
	x    uint64
	nsec int32
	rank int8
}

func numKey(rank int8, f float64) valueKey { return valueKey{rank: rank, x: math.Float64bits(f)} }

// num is a rank 1 or 2 key's number.
func (k valueKey) num() float64 { return math.Float64frombits(k.x) }

// unixToInternal is the seconds from the year 1 to the Unix epoch.
const unixToInternal int64 = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 24 * 60 * 60

// keyOf returns the key of a value.
func keyOf(v any) valueKey {
	if _, ok := v.(string); ok { // the kind most keys are of
		return valueKey{rank: 4, v: v}
	}
	switch t := v.(type) {
	case nil:
		return valueKey{rank: 0}
	case bool:
		return numKey(1, b2f(t))
	case int:
		return numKey(2, float64(t))
	case int32:
		return numKey(2, float64(t))
	case int64:
		return numKey(2, float64(t))
	case uint:
		return numKey(2, float64(t))
	case uint32:
		return numKey(2, float64(t))
	case uint64:
		return numKey(2, float64(t))
	case float32:
		return numKey(2, float64(t))
	case float64:
		return numKey(2, t)
	case time.Time:
		return timeKey(t.Unix(), int64(t.Nanosecond()))
	default:
		return valueKey{rank: 5}
	}
}

// scalarKey is keyOf(s.box()), read from the words.
func scalarKey(s scalar) valueKey {
	switch s.kind {
	case kindFloat64:
		return valueKey{rank: 2, x: s.w0}
	case kindInt, kindInt64:
		return numKey(2, float64(int64(s.w0)))
	case kindBool:
		return numKey(1, float64(s.w0))
	default:
		sec, nsec, _ := s.timeParts()
		return timeKey(sec, nsec)
	}
}

func timeKey(unixSec, nsec int64) valueKey {
	return valueKey{rank: 3, x: uint64(unixSec + unixToInternal), nsec: int32(nsec)}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// key returns the key of a field and whether the document has it.
func (p *packed) key(name string) (valueKey, bool) {
	i := p.shape.index(name)
	if i < 0 {
		return valueKey{}, false
	}
	switch p.shape.kinds[i] {
	case kindAny:
		return keyOf(p.vals[p.shape.at[i]]), true
	case kindCode:
		return valueKey{rank: 4, v: p.codeAt(i).box}, true
	}
	return scalarKey(p.scalarAt(i)), true
}

// fieldKey is key for callers to whom an absent field reads as nil:
// the index files a document without the field with the nils, and the
// sort orders it with them.
func (p *packed) fieldKey(name string) valueKey {
	k, _ := p.key(name)
	return k
}

// compareKeys orders two keys.
func compareKeys(a, b valueKey) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	switch a.rank {
	case 1, 2:
		switch fa, fb := a.num(), b.num(); {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case 3:
		if c := cmp.Compare(int64(a.x), int64(b.x)); c != 0 {
			return c
		}
		return cmp.Compare(a.nsec, b.nsec)
	case 4:
		return strings.Compare(a.v.(string), b.v.(string))
	default:
		return 0
	}
}

// CompareValues orders two document values with the same rules Find's
// sort uses. Exported so a shard router can merge the sorted partial
// results of a fanned-out scan without re-implementing the ordering.
func CompareValues(a, b any) int { return compareValues(a, b) }

// compareValues orders two document values; see valueKey.
func compareValues(a, b any) int { return compareKeys(keyOf(a), keyOf(b)) }
