package docstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// encoderLine is what json.NewEncoder(w).Encode(v) writes — what the
// REST layer sent for a document before rows — or its error.
func encoderLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// assertRowEncodesLikeEncodingJSON holds one row to Row.AppendJSON's
// contract: with no predicate, the encoder's bytes for the row's
// document; with one, the marshalled map of the fields it keeps; and an
// error exactly when the encoder has one.
func assertRowEncodesLikeEncodingJSON(t *testing.T, r Row) {
	t.Helper()
	doc := r.Doc(nil)
	want, wantErr := encoderLine(doc)
	got, err := r.AppendJSON(nil, nil)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("document %v:\n AppendJSON error %v\n encoding/json error %v", doc, err, wantErr)
	}
	if err == nil && string(got)+"\n" != string(want) {
		t.Fatalf("document %v:\n AppendJSON    %s\n encoding/json %s", doc, got, want)
	}
	// A predicate that depends on nothing but the name, keeping about
	// half of them and sometimes none.
	keep := func(name string) bool { return len(name)%2 == 0 }
	kept := Doc{}
	for k, v := range doc {
		if keep(k) {
			kept[k] = v
		}
	}
	want, wantErr = json.Marshal(kept)
	// Appending to a buffer in use must leave what it holds alone.
	got, err = r.AppendJSON([]byte("prefix"), keep)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("document %v filtered:\n AppendJSON error %v\n encoding/json error %v", doc, err, wantErr)
	}
	if err == nil && string(got) != "prefix"+string(want) {
		t.Fatalf("document %v filtered:\n AppendJSON    %s\n encoding/json %s", doc, got, want)
	}
}

// rowValues is every kind of value a document can hold, the edges of
// each rule of Row.AppendJSON's type switch and of its fallback among
// them.
func rowValues() []any {
	paris := time.FixedZone("CET", 3600)
	return []any{
		// Strings: plain, each escaped ASCII character, control bytes with
		// and without a short escape, DEL, non-ASCII, invalid UTF-8, and
		// the line separators JSON allows but JavaScript does not.
		"", "plain ASCII 09 az AZ ~", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "é ü 日本 🎧", "broken \xff\xfe utf8 \xc3", "\u2028 and \u2029",
		// Floats on both sides of each format switch, and the extremes.
		0.0, math.Copysign(0, -1), 1.0, -1.5, 48.8566, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, -2.5e-9,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 100.0, 123456789.0, 0.1 + 0.2,
		// Integers of the kinds written directly and of kinds left to the
		// encoder.
		0, -1, 42, math.MaxInt64, math.MinInt64, int64(7), int64(-9e18), int32(5), uint8(200), uint64(math.MaxUint64), float32(0.1),
		true, false, nil,
		// Times: UTC and zoned, with and without nanoseconds, at the edges
		// of the four-digit year, and with an offset RFC 3339 cannot spell.
		time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC),
		time.Date(2016, 2, 1, 10, 0, 0, 123456789, time.UTC),
		time.Date(2016, 2, 1, 10, 0, 0, 120000000, paris),
		time.Date(2016, 7, 1, 23, 59, 59, 1, time.FixedZone("", -9*3600-30*60)),
		time.Date(2016, 7, 1, 0, 0, 0, 0, time.FixedZone("", 3600+17)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Time{},
		// Nested values and bytes: the encoder's.
		map[string]any{"lat": 48.85, "tags": []any{"a<b", 1.0, nil}, "deep": map[string]any{"t": time.Date(2016, 1, 1, 0, 0, 0, 5, paris)}},
		[]any{}, []any{1.0, "two", []any{3.0}, map[string]any{"k": "v&"}}, map[string]any{},
		[]byte("bytes are base64"),
	}
}

// rowFieldSets are the field sets the property test spreads its values
// over: a handful, odd names among them, so that the shapes it
// registers stay far below the registry's bound — the registry is the
// process's, and the tests that count shapes run in this process too.
func rowFieldSets() [][]string {
	return [][]string{
		{"a"},
		{"spl", "zone", "sensedAt", "localized", "userId", "lat"},
		{"", "A", "a", "aa", "b"},
		{`quo"te`, `back\slash`, "<html>&", "é", "日本", "\xff", "new\nline", "\u2028"},
		{"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12"},
	}
}

// TestRowAppendJSONMatchesEncodingJSON: a row written out by AppendJSON
// is, byte for byte, what encoding/json writes for the same document —
// over every kind of value, odd field names, a field predicate, and a
// shape the registry did not take — and fails when it fails.
func TestRowAppendJSONMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	emptyShapeRegistry(t)
	values, sets := rowValues(), rowFieldSets()
	c := NewStore().Collection("rows")
	rng := rand.New(rand.NewSource(24))
	const docs = 400
	// typed is each field set with the kinds of the values drawn for it:
	// what a shape is.
	typed := map[string]bool{}
	for i := 0; i < docs; i++ {
		d := Doc{}
		var kinds []kind
		// Every value is used, in turn, and the rest are drawn.
		for j, name := range sets[i%len(sets)] {
			if j == 0 {
				d[name] = values[i%len(values)]
			} else {
				d[name] = values[rng.Intn(len(values))]
			}
		}
		names := make([]string, 0, len(d))
		for name := range d {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			k, _ := kindOf(fieldNamed(name), d[name])
			kinds = append(kinds, k)
		}
		typed[fmt.Sprint(i%len(sets), kinds)] = true
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.FindRowsContext(ctx, nil, FindOptions{})
	if err != nil || len(rows) != docs {
		t.Fatalf("read back %d rows of %d: %v", len(rows), docs, err)
	}
	for _, r := range rows {
		assertRowEncodesLikeEncodingJSON(t, r)
	}
	if grown := ShapeCount(); grown > len(typed) {
		t.Fatalf("%d field sets of given kinds registered %d shapes", len(typed), grown)
	}

	t.Run("not a number", func(t *testing.T) {
		for _, bad := range []any{math.NaN(), math.Inf(1), math.Inf(-1), []any{1.0, math.NaN()}} {
			id, err := c.Insert(Doc{"a": bad})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := c.FindRowsContext(ctx, Doc{IDField: id}, FindOptions{})
			if err != nil || len(rows) != 1 {
				t.Fatalf("read back %d rows: %v", len(rows), err)
			}
			if _, err := rows[0].AppendJSON(nil, nil); err == nil {
				t.Fatalf("%v encoded", bad)
			}
			assertRowEncodesLikeEncodingJSON(t, rows[0])
			// The predicate that drops the field drops the error with it.
			if out, err := rows[0].AppendJSON(nil, func(name string) bool { return name == IDField }); err != nil || string(out) != `{"_id":"`+id+`"}` {
				t.Fatalf("without the field: %s, %v", out, err)
			}
		}
	})

	t.Run("private shape", func(t *testing.T) {
		// Names longer than the registry keys make a shape of the
		// document's own: written out the same, from nothing cached.
		before := ShapeCount()
		long := strings.Repeat("n<", maxShapeKey/2+1)
		id, err := c.Insert(Doc{long: "v", "spl": 61.5, "at": time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.FindRowsContext(ctx, Doc{IDField: id}, FindOptions{})
		if err != nil || len(rows) != 1 {
			t.Fatalf("read back %d rows: %v", len(rows), err)
		}
		assertRowEncodesLikeEncodingJSON(t, rows[0])
		if rows[0].p.shape.quoted != nil || ShapeCount() != before {
			t.Fatalf("a private shape cached its keys (registry %d -> %d)", before, ShapeCount())
		}
		fields := NewFields("spl", long, "absent")
		for range 2 {
			if v := fields.In(rows[0]); v.At(0) != 61.5 || v.At(1) != "v" || v.At(2) != nil {
				t.Fatalf("fields of the private row = %v %v %v", v.At(0), v.At(1), v.At(2))
			}
		}
		fields.slots.Range(func(any, any) bool {
			t.Fatal("a private shape's slots were kept")
			return false
		})
	})
}

// FuzzRowAppendJSON: for any string — as a value and as a field name —
// and any float64, AppendJSON and encoding/json write the same bytes or
// both refuse.
func FuzzRowAppendJSON(f *testing.F) {
	for _, v := range rowValues() {
		switch tv := v.(type) {
		case string:
			f.Add(tv, 61.5)
		case float64:
			f.Add("spl", tv)
		}
	}
	f.Add("NaN", math.NaN())
	f.Add("inf", math.Inf(-1))
	f.Fuzz(func(t *testing.T, s string, x float64) {
		c := NewStore().Collection("fuzz")
		if _, err := c.Insert(Doc{"s": s, "x": x, "n:" + s: []any{s, x}}); err != nil {
			t.Fatal(err)
		}
		rows, err := c.FindRowsContext(context.Background(), nil, FindOptions{})
		if err != nil || len(rows) != 1 {
			t.Fatalf("read back %d rows: %v", len(rows), err)
		}
		assertRowEncodesLikeEncodingJSON(t, rows[0])
	})
}

// TestRowsAgreeWithDocs: the row reads and the document reads are one
// walk — same documents, same order, same paging, same anchors — and
// Row.Doc applies the projection FindContext applied.
func TestRowsAgreeWithDocs(t *testing.T) {
	ctx := context.Background()
	c := NewStore().Collection("c")
	c.EnsureIndex("zone")
	for i := 0; i < 60; i++ {
		// Sort keys tie in runs of five; every fourth document lacks the
		// key, and sorts first.
		d := Doc{IDField: fmt.Sprintf("d%02d", i), "zone": fmt.Sprintf("z%d", i%3), "n": float64(i)}
		if i%4 != 0 {
			d["k"] = float64((i * 7 % 60) / 5)
		}
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, filter := range []Doc{nil, {"zone": "z1"}, {"n": map[string]any{"$gte": 20.0}}, {"zone": "none"}} {
		for _, opts := range []FindOptions{
			{}, {Limit: 7}, {Skip: 5, Limit: 7}, {Skip: 100},
			{SortField: "k"}, {SortField: "k", SortDesc: true, Skip: 3, Limit: 11},
			{SortField: "k", Limit: 4, Projection: []string{"n"}}, {Projection: []string{"zone", "absent"}},
		} {
			docs, err := c.FindContext(ctx, filter, opts)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := c.FindRowsContext(ctx, filter, opts)
			if err != nil || len(rows) != len(docs) {
				t.Fatalf("filter %v opts %+v: %d rows (%v) for %d documents", filter, opts, len(rows), err, len(docs))
			}
			for i, r := range rows {
				if got := r.Doc(opts.Projection); fmt.Sprint(got) != fmt.Sprint(docs[i]) {
					t.Fatalf("filter %v opts %+v: row %d is %v, document %v", filter, opts, i, got, docs[i])
				}
				if len(r.Names()) != len(r.Doc(nil)) || r.Value("n") == nil || r.Value("absent") != nil {
					t.Fatalf("row %d is not the whole document: %v", i, r.Names())
				}
			}
		}
		for _, anchor := range []string{"", "d00", "d31", "d59"} {
			docs, err := c.FindAfterContext(ctx, anchor, filter, 9)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := c.FindRowsAfterContext(ctx, anchor, filter, 9)
			if err != nil || len(rows) != len(docs) {
				t.Fatalf("filter %v after %q: %d rows (%v) for %d documents", filter, anchor, len(rows), err, len(docs))
			}
			for i, r := range rows {
				if fmt.Sprint(r.Doc(nil)) != fmt.Sprint(docs[i]) {
					t.Fatalf("filter %v after %q: row %d is %v, document %v", filter, anchor, i, r.Doc(nil), docs[i])
				}
			}
		}
	}
	if _, err := c.FindRowsAfterContext(ctx, "gone", nil, 1); err == nil {
		t.Fatal("a vanished anchor resumed")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.FindRowsContext(cancelled, nil, FindOptions{}); err != context.Canceled {
		t.Fatalf("cancelled read: %v", err)
	}
}
