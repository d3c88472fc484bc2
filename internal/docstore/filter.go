package docstore

import (
	"fmt"
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

type fieldPred struct {
	field string
	pred  func(v any, present bool) bool
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
			m.preds = append(m.preds, fieldPred{field, func(v any, _ bool) bool {
				return pred(v)
			}})
			continue
		}
		opDoc, isOp := cond.(map[string]any)
		if !isOp {
			want := cond
			m.preds = append(m.preds, fieldPred{field, func(v any, present bool) bool {
				return present && compareValues(v, want) == 0
			}})
			continue
		}
		for op, arg := range opDoc {
			p, err := compileOp(op, arg)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", field, err)
			}
			m.preds = append(m.preds, fieldPred{field, p})
		}
	}
	return m, nil
}

func compileOp(op string, arg any) (func(v any, present bool) bool, error) {
	switch op {
	case "$eq":
		return func(v any, present bool) bool {
			return present && compareValues(v, arg) == 0
		}, nil
	case "$ne":
		return func(v any, present bool) bool {
			return !present || compareValues(v, arg) != 0
		}, nil
	case "$gt":
		return func(v any, present bool) bool {
			return present && comparable2(v, arg) && compareValues(v, arg) > 0
		}, nil
	case "$gte":
		return func(v any, present bool) bool {
			return present && comparable2(v, arg) && compareValues(v, arg) >= 0
		}, nil
	case "$lt":
		return func(v any, present bool) bool {
			return present && comparable2(v, arg) && compareValues(v, arg) < 0
		}, nil
	case "$lte":
		return func(v any, present bool) bool {
			return present && comparable2(v, arg) && compareValues(v, arg) <= 0
		}, nil
	case "$in":
		list, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("docstore: $in wants a list, got %T", arg)
		}
		return func(v any, present bool) bool {
			if !present {
				return false
			}
			for _, e := range list {
				if compareValues(v, e) == 0 {
					return true
				}
			}
			return false
		}, nil
	case "$nin":
		list, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("docstore: $nin wants a list, got %T", arg)
		}
		return func(v any, present bool) bool {
			if !present {
				return true
			}
			for _, e := range list {
				if compareValues(v, e) == 0 {
					return false
				}
			}
			return true
		}, nil
	case "$exists":
		want, ok := arg.(bool)
		if !ok {
			return nil, fmt.Errorf("docstore: $exists wants a bool, got %T", arg)
		}
		return func(_ any, present bool) bool {
			return present == want
		}, nil
	case "$prefix":
		prefix, ok := arg.(string)
		if !ok {
			return nil, fmt.Errorf("docstore: $prefix wants a string, got %T", arg)
		}
		return func(v any, present bool) bool {
			s, isStr := v.(string)
			return present && isStr && strings.HasPrefix(s, prefix)
		}, nil
	default:
		return nil, fmt.Errorf("docstore: unknown operator %q", op)
	}
}

func (m *matcher) matches(d *packed) bool {
	for _, fp := range m.preds {
		v, present := d.get(fp.field)
		if !fp.pred(v, present) {
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

// typeRank orders values of different kinds for stable sorts:
// missing < nil < bool < number < time < string < other.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int32, int64, uint, uint32, uint64, float32, float64:
		return 2
	case time.Time:
		return 3
	case string:
		return 4
	default:
		return 5
	}
}

// comparable2 reports whether the two values live in the same ordered
// domain (so that range operators do not accidentally match across
// types).
func comparable2(a, b any) bool {
	return typeRank(a) == typeRank(b)
}

// CompareValues orders two document values with the same rules Find's
// sort uses. Exported so a shard router can merge the sorted partial
// results of a fanned-out scan without re-implementing the ordering.
func CompareValues(a, b any) int { return compareValues(a, b) }

// compareValues orders two document values. Numbers compare
// numerically across int/float widths; times by instant; strings
// lexically. Values of different kinds order by typeRank.
func compareValues(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		ab, _ := a.(bool)
		bb, _ := b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		default:
			return 1
		}
	case 2:
		fa, fb := toFloat(a), toFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case 3:
		ta, _ := a.(time.Time)
		tb, _ := b.(time.Time)
		switch {
		case ta.Before(tb):
			return -1
		case ta.After(tb):
			return 1
		default:
			return 0
		}
	case 4:
		sa, _ := a.(string)
		sb, _ := b.(string)
		return strings.Compare(sa, sb)
	default:
		// Unordered kinds compare equal so sorts stay stable.
		return 0
	}
}

func toFloat(v any) float64 {
	switch t := v.(type) {
	case int:
		return float64(t)
	case int32:
		return float64(t)
	case int64:
		return float64(t)
	case uint:
		return float64(t)
	case uint32:
		return float64(t)
	case uint64:
		return float64(t)
	case float32:
		return float64(t)
	case float64:
		return t
	default:
		return 0
	}
}
