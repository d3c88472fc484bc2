package docstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/urbancivics/goflow/internal/wal"
)

// kindsDoc holds every value kind the codec carries, nested both ways.
func kindsDoc() Doc {
	paris := time.FixedZone("", 2*3600)
	return Doc{
		IDField: "kinds", "nil": nil, "true": true, "false": false,
		"int": -42, "int64": int64(-1) << 50, "float64": 3.0, "float-frac": -0.125,
		"string": "héllo", "empty-string": "", "bytes": []byte("\x00raw\xff"), "empty-bytes": []byte{},
		"time-paris": time.Date(2016, 6, 21, 18, 30, 15, 123456789, paris),
		"time-utc":   time.Date(2016, 6, 21, 16, 30, 16, 0, time.UTC), "time-zero": time.Time{},
		"map":       map[string]any{"nested": map[string]any{"deep": []any{1, int64(2), 3.0, "four", nil, false}}, "n": 1},
		"slice":     []any{map[string]any{"k": "v"}, []any{}, map[string]any{}, "héllo"},
		"empty-map": map[string]any{}, "empty-slice": []any{},
	}
}

// kindSplitDocs are documents whose field "v" holds a value of another
// kind in each — float64, int, int64, a time in two zone offsets, a
// string, nil, a map — so that one record's documents, of one field
// set, fall into as many shapes as there are kinds.
func kindSplitDocs() []Doc {
	at := time.Date(2016, 6, 21, 18, 30, 15, 123456789, time.UTC)
	vs := []any{61.5, 7, int64(-1) << 40, at, at.In(time.FixedZone("", -9*3600-30*60)), "v", nil, map[string]any{"v": 1.0}}
	docs := make([]Doc, len(vs))
	for i, v := range vs {
		docs[i] = Doc{IDField: fmt.Sprintf("k%d", i), "v": v, "zone": "z"}
	}
	return docs
}

// everyOp is one mutation of each kind.
func everyOp() []*Mutation {
	return []*Mutation{
		{Op: OpInsert, Collection: "c", ID: "kinds", Doc: kindsDoc()},
		{Op: OpInsertMany, Collection: "c", Docs: []Doc{kindsDoc(), {IDField: "b", "zone": "z"}, {}}},
		{Op: OpUpdate, Collection: "c", ID: "kinds", Fields: Doc{"zone": "z", "n": 1}},
		{Op: OpUnset, Collection: "c", ID: "kinds", Names: []string{"zone", "n"}},
		{Op: OpDelete, Collection: "c", ID: "kinds"},
		{Op: OpDrop, Collection: "c"},
		{Op: OpEnsureIndex, Collection: "c", Names: []string{"zone"}},
	}
}

func TestCodecRoundTripEveryOpAndKind(t *testing.T) {
	for _, m := range everyOp() {
		payload, err := EncodeMutation(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		if payload[0] != 0 {
			t.Fatalf("%s: payload starts %#x, want the 0x00 marker", m.Op, payload[0])
		}
		got, err := decodeMutation(payload, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		got.format = 0
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s round trip:\ngot  %#v\nwant %#v", m.Op, got, m)
		}
	}
}

// TestCodecEqualDocsEqualBytes: the encoding does not depend on how a
// map was built or iterated.
func TestCodecEqualDocsEqualBytes(t *testing.T) {
	want, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "c", ID: "kinds", Doc: kindsDoc()})
	if err != nil {
		t.Fatal(err)
	}
	src := kindsDoc()
	keys := make([]string, 0, len(src))
	for k := range src {
		keys = append(keys, k)
	}
	for round := 0; round < 20; round++ {
		rand.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		d := Doc{}
		for _, k := range keys {
			d[k] = src[k]
		}
		got, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "c", ID: "kinds", Doc: d})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: same document, different bytes", round)
		}
	}
}

// TestUnsupportedValueRefusedBeforeApply: a value outside the codec's
// types fails the write at Log time — nothing applied, nothing logged.
func TestUnsupportedValueRefusedBeforeApply(t *testing.T) {
	w := openWAL(t, t.TempDir(), wal.Options{Policy: wal.FsyncNone})
	defer w.Close()
	s := NewStore()
	AttachWAL(s, w)
	c := s.Collection("c")
	if _, err := c.Insert(Doc{IDField: "ok", "v": 1}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]any{
		"uint":      uint(1),
		"float32":   float32(1),
		"[]string":  []string{"a"},
		"nested":    map[string]any{"deep": []any{struct{}{}}},
		"*time":     &time.Time{},
		"typed map": map[string]string{"a": "b"},
	} {
		if _, err := c.Insert(Doc{IDField: name, "v": bad}); !errors.Is(err, ErrUnsupportedValue) {
			t.Fatalf("insert %s: err = %v, want ErrUnsupportedValue", name, err)
		}
		if _, err := c.InsertMany([]Doc{{IDField: name + "-1"}, {IDField: name + "-2", "v": bad}}); !errors.Is(err, ErrUnsupportedValue) {
			t.Fatalf("insert-many %s: err = %v, want ErrUnsupportedValue", name, err)
		}
		if err := c.Update("ok", Doc{"v": bad}); !errors.Is(err, ErrUnsupportedValue) {
			t.Fatalf("update %s: err = %v, want ErrUnsupportedValue", name, err)
		}
	}
	if n, _ := c.CountContext(context.Background(), nil); n != 1 {
		t.Fatalf("collection holds %d documents after refused writes, want 1", n)
	}
	if d, _ := c.Get("ok"); d["v"] != 1 {
		t.Fatalf("refused update was applied: %v", d)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Records; got != 1 {
		t.Fatalf("log holds %d records after refused writes, want 1", got)
	}
}

func TestDecodeRefusesUnknownVersionAndOp(t *testing.T) {
	payload, err := EncodeMutation(&Mutation{Op: OpDelete, Collection: "c", ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	newer := bytes.Clone(payload)
	newer[1]++
	if _, err := decodeMutation(newer, nil); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version %d: err = %v, want ErrCodecVersion", newer[1], err)
	}
	badOp := bytes.Clone(payload)
	badOp[2] = 99
	if _, err := decodeMutation(badOp, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("op 99: err = %v, want ErrCorrupt", err)
	}
	if _, err := decodeMutation(nil, nil); err == nil {
		t.Fatal("empty payload decoded")
	}
}

// decodeOverAllocates reports whether decoding payload allocates more
// than a small multiple of its length: the largest legitimate
// expansion is an empty map per input byte (a batch of empty
// documents), well under 64 bytes each. The allocation counter is
// process-wide, so a reading over budget is taken again — what the
// decoder allocates repeats, what another goroutine did beside it does
// not. With shapes set it is the decoder of the apply path that is
// measured, the one that builds stored documents instead of maps.
func decodeOverAllocates(payload []byte, shapes *shapeCache) (m *Mutation, over bool, err error) {
	budget := uint64(64*len(payload)) + 16<<10
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err = decodeMutation(payload, shapes)
		runtime.ReadMemStats(&after)
		if after.TotalAlloc-before.TotalAlloc <= budget {
			return m, false, err
		}
	}
	return m, true, err
}

// TestDecodeLengthsCheckedBeforeAllocating: every count and length is
// checked against the bytes left before it sizes anything.
func TestDecodeLengthsCheckedBeforeAllocating(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<30)
	head := func(op MutationOp) []byte { return []byte{0, codecVersion, byte(op), 0, 1} } // collection "", id = index 0
	hostile := map[string][]byte{
		"documents":     append(head(OpInsertMany), huge...),
		"names":         append(head(OpUnset), huge...),
		"fields":        append(head(OpInsert), huge...),
		"string length": append([]byte{0, codecVersion, byte(OpDelete)}, binary.AppendUvarint(nil, 1<<31)...),
		"bytes length":  append(append(head(OpInsert), 1, 0, tagBytes), huge...),
		"slice length":  append(append(head(OpInsert), 1, 0, tagSlice), huge...),
		"nested fields": append(append(head(OpInsert), 1, 0, tagMap), huge...),
		"string index":  append(head(OpInsert), 1, 0, tagString, 0xff, 0x01),
	}
	for name, payload := range hostile {
		for _, shapes := range []*shapeCache{nil, {}} {
			_, over, err := decodeOverAllocates(payload, shapes)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
			if over {
				t.Errorf("%s: decoding %d bytes allocated far more than their length", name, len(payload))
			}
		}
	}
}

// TestDecodeAcceptsOnlyCanonicalForm: each way a payload could say the
// same thing twice is an error, so a payload that decodes re-encodes
// to itself.
func TestDecodeAcceptsOnlyCanonicalForm(t *testing.T) {
	head := []byte{0, codecVersion, byte(OpInsert), 0, 1}
	for name, body := range map[string][]byte{
		"keys out of order":  {2, 2, 'b', tagNil, 2, 'a', tagNil},
		"key repeated":       {2, 2, 'a', tagNil, 3, tagNil},
		"literal repeated":   {2, 2, 'a', tagString, 2, 'a', 2, 'b', tagNil},
		"padded varint":      {0x81, 0x00, 2, 'a', tagNil},
		"nanoseconds >= 1e9": {1, 2, 'a', tagTime, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0},
		"unknown tag":        {1, 2, 'a', 0x7f},
		"trailing byte":      {1, 2, 'a', tagNil, 0},
		"truncated":          {1, 2, 'a'},
	} {
		for _, shapes := range []*shapeCache{nil, {}} {
			if _, err := decodeMutation(append(bytes.Clone(head), body...), shapes); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
		}
	}
	if _, err := decodeMutation(append(bytes.Clone(head), 2, 2, 'a', tagNil, 2, 'b', tagString, 3), nil); err != nil {
		t.Fatalf("control payload (a: nil, b: \"a\" by index): %v", err)
	}
}

// FuzzMutationDecode: arbitrary bytes never panic and never allocate
// more than a small multiple of their length, and whatever decodes
// re-encodes to the same bytes. All of it holds for both decoders — the
// one that builds maps and the one that builds stored documents — and
// they accept the same payloads and read the same documents out of
// them.
func FuzzMutationDecode(f *testing.F) {
	for _, m := range everyOp() {
		payload, err := EncodeMutation(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	split, err := EncodeMutation(&Mutation{Op: OpInsertMany, Collection: "c", Docs: kindSplitDocs()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(split)
	f.Add(append([]byte{0, codecVersion, byte(OpInsertMany), 0, 1}, binary.AppendUvarint(nil, 1<<30)...))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || payload[0] != codecMarker {
			return // gob's decoder is the standard library's to fuzz
		}
		m, over, err := decodeOverAllocates(payload, nil)
		stored, storedOver, storedErr := decodeOverAllocates(payload, &shapeCache{})
		if over || storedOver {
			t.Fatalf("decoding %d bytes allocated far more than their length (into maps: %v, into stored form: %v)", len(payload), over, storedOver)
		}
		if (err == nil) != (storedErr == nil) {
			t.Fatalf("the decoders disagree: into maps %v, into stored form %v", err, storedErr)
		}
		if err != nil {
			return
		}
		for _, dm := range []*Mutation{m, stored} {
			again, err := EncodeMutation(dm)
			if err != nil {
				t.Fatalf("decoded mutation does not re-encode: %v", err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("not canonical:\n in  %x\n out %x", payload, again)
			}
		}
		if got := unpacked(stored); !reflect.DeepEqual(got, m) {
			t.Fatalf("the decoders read different mutations:\n into stored form %+v\n into maps        %+v", got, m)
		}
	})
}

// unpacked returns m with the documents it carries in stored form
// turned back into the maps decodeMutation gives.
func unpacked(m *Mutation) *Mutation {
	out := *m
	out.packed = nil
	for i := range m.packed {
		if m.Op == OpInsert {
			out.Doc = Row{m.packed[i]}.Doc(nil)
		} else {
			out.Docs = append(out.Docs, Row{m.packed[i]}.Doc(nil))
		}
	}
	if m.Op == OpInsertMany && out.Docs == nil {
		out.Docs = []Doc{}
	}
	return &out
}

// TestDecodeConcurrentInterning runs the decoders a sharded or
// following node runs side by side (under -race in CI): interned
// strings are shared between goroutines and documents, the documents
// themselves never are.
func TestDecodeConcurrentInterning(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 40; i++ {
		docs := make([]Doc, 5)
		for j := range docs {
			docs[j] = Doc{IDField: fmt.Sprintf("race-%d-%d", i, j), "raceZone": fmt.Sprintf("Z%d", j), "raceApp": "SC", "n": j}
		}
		p, err := EncodeMutation(&Mutation{Op: OpInsertMany, Collection: "race", Docs: docs})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	const workers = 4
	decoded := make([][]*Mutation, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range payloads {
				m, err := decodeMutation(p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				decoded[g] = append(decoded[g], m)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	str := func(v any) *byte { return unsafe.StringData(v.(string)) }
	first := decoded[0][0].Docs[0]
	for g := range decoded {
		for i, m := range decoded[g] {
			for j, d := range m.Docs {
				if str(d["raceApp"]) != str(first["raceApp"]) {
					t.Fatalf("worker %d record %d doc %d: value %q not shared", g, i, j, d["raceApp"])
				}
				if str(d["raceZone"]) != str(decoded[0][0].Docs[j]["raceZone"]) {
					t.Fatalf("worker %d record %d doc %d: value %q not shared", g, i, j, d["raceZone"])
				}
			}
		}
	}
	// Same record decoded twice: equal documents, separate maps.
	a, b := decoded[0][0].Docs[0], decoded[1][0].Docs[0]
	a["raceApp"], a["extra"] = "mutated", true
	if b["raceApp"] != "SC" || len(b) != 4 {
		t.Fatalf("mutating one decoded document changed another: %v", b)
	}
	if again, _ := decodeMutation(payloads[0], nil); again.Docs[0]["raceApp"] != "SC" {
		t.Fatalf("mutating a decoded document changed the interned value: %v", again.Docs[0])
	}
}

// TestCowMapAddWhenFull: a present key keeps its value, and a full map
// refuses a new one and hands it back — internShape returns the
// caller's shape when the registry filled under it — while addFunc
// makes nothing.
func TestCowMapAddWhenFull(t *testing.T) {
	var c cowMap[*int]
	one, two := new(int), new(int)
	if got, full := c.add("a", one, 1); got != one || full {
		t.Fatalf("first add = %p, %v", got, full)
	}
	if got, full := c.add("a", two, 1); got != one || full {
		t.Fatalf("add of a present key = %p, %v; want the stored %p", got, full, one)
	}
	if got, full := c.add("b", two, 1); got != two || !full {
		t.Fatalf("add to a full map = %p, %v; want %p back, full", got, full, two)
	}
	made := false
	if got, full := c.addFunc("b", 1, func(int) *int { made = true; return two }); got != nil || !full || made {
		t.Fatalf("addFunc on a full map = %p, %v, made %v", got, full, made)
	}
	if c.len() != 1 {
		t.Fatalf("map holds %d keys, want 1", c.len())
	}
}

// TestInterningIsBounded: a field stops taking values once it has shown
// more than maxInternValues distinct ones, but keeps sharing (and
// coding) those it took; long strings and ids are never tracked, and
// the field table stops growing at maxInternFields.
func TestInterningIsBounded(t *testing.T) {
	// The test fills the process-wide field table; hand the next test
	// the one this test found.
	saved := internFields.m.Load()
	t.Cleanup(func() { internFields.m.Store(saved) })
	decode := func(d Doc) Doc {
		t.Helper()
		p, err := EncodeMutation(&Mutation{Op: OpInsert, Collection: "bounded", Doc: d})
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMutation(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.Doc
	}
	shared := func(field string, v string) bool {
		a, b := decode(Doc{field: v}), decode(Doc{field: v})
		return unsafe.StringData(a[field].(string)) == unsafe.StringData(b[field].(string))
	}
	if !shared("boundedEnum", "walking") {
		t.Fatal("a repeated short value is not shared")
	}
	if long := string(bytes.Repeat([]byte("x"), maxInternLen+1)); shared("boundedEnum", long) {
		t.Fatal("a value longer than maxInternLen was interned")
	}
	if shared(IDField, "id-0") {
		t.Fatal("an _id was interned")
	}
	closedBefore := InternClosedFields()
	for i := 0; i <= maxInternValues; i++ {
		decode(Doc{"boundedID": fmt.Sprintf("id-%d", i)})
	}
	if shared("boundedID", fmt.Sprintf("id-%d", maxInternValues)) || shared("boundedID", "id-new") {
		t.Fatal("a field past maxInternValues distinct values still takes new ones")
	}
	if !shared("boundedID", "id-0") || !shared("boundedID", fmt.Sprintf("id-%d", maxInternValues-1)) {
		t.Fatal("a closed field gave up a value it had taken")
	}
	f, _ := internFields.get("boundedID")
	if f == nil || !f.closed.Load() || f.values.len() != maxInternValues {
		t.Fatalf("overflowed field is not closed with its %d values: %+v", maxInternValues, f)
	}
	for c := 0; c < maxInternValues; c++ {
		if iv := f.value(uint8(c)); iv == nil || int(iv.code) != c || iv.s != fmt.Sprintf("id-%d", c) {
			t.Fatalf("code %d holds %+v", c, iv)
		}
	}
	if got := InternClosedFields(); got != closedBefore+1 {
		t.Fatalf("closed fields %d -> %d, want one more", closedBefore, got)
	}
	for i := 0; i < 2*maxInternFields; i++ {
		decode(Doc{fmt.Sprintf("boundedField%d", i): "v"})
	}
	if n := len(*internFields.m.Load()); n != maxInternFields {
		t.Fatalf("field table holds %d names, want it capped at %d", n, maxInternFields)
	}
}

// TestSnapshotBitFlipIsDetected: a snapshot with any one byte changed
// is refused with ErrCorrupt and leaves the target store alone. (The
// gob snapshot had no checksum: a flip inside a string value loaded as
// a different store.)
func TestSnapshotBitFlipIsDetected(t *testing.T) {
	good := snapshotBytes(t, genStore(t, rand.New(rand.NewSource(7))))
	target := NewStore()
	if _, err := target.Collection("mine").Insert(Doc{IDField: "keep", "v": 1}); err != nil {
		t.Fatal(err)
	}
	before := snapshotBytes(t, target)
	rng := rand.New(rand.NewSource(8))
	offsets := []int{0, len(snapshotMagic), snapshotHeaderSize - 1, snapshotHeaderSize, len(good) - 1}
	for len(offsets) < 200 {
		offsets = append(offsets, rng.Intn(len(good)))
	}
	for _, off := range offsets {
		bad := bytes.Clone(good)
		bad[off] ^= 1 << rng.Intn(8)
		if err := target.Restore(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at offset %d of %d: err = %v, want ErrCorrupt", off, len(good), err)
		}
		if !bytes.Equal(snapshotBytes(t, target), before) {
			t.Fatalf("flip at offset %d: the refused restore changed the store", off)
		}
	}
	for _, cut := range []int{0, 3, snapshotHeaderSize, snapshotHeaderSize + 5, len(good) - 1} {
		if err := target.Restore(bytes.NewReader(good[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	if err := target.Restore(bytes.NewReader(append(bytes.Clone(good), 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
	if err := target.Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("the unflipped snapshot: %v", err)
	}
}
