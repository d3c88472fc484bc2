package sensing

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
)

// codecEdgeStrings are the strings the encoder must hand to
// encoding/json, and the decoder must leave to it, next to ones it
// keeps: HTML-escaped characters, JSON escapes, non-ASCII, the line
// separators encoding/json escapes, invalid UTF-8, control bytes.
var codecEdgeStrings = []string{
	"", "u1", "LGE NEXUS 5", "1.2.9", "<&>\"", `back\slash`, "é", "ü SAMSUNG", "line\u2028sep\u2029",
	"  ", "\xff\xfe", "a\x00b", "tab\there", "~\x7f", "plain ascii !#$%'()*+,-./:;=?@[]^_`{|}",
}

// codecEdgeFloats are the floats whose encoding takes each of
// encoding/json's rules: 'f', 'e' below 1e-6 and from 1e21 up, the
// e-07 → e-7 clean-up, negative zero, and the NaN/±Inf errors.
var codecEdgeFloats = []float64{
	0, 61.5, 48.85, 2.35, 0.9, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, -1e-7, -1e21,
	math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// codecEdgeTimes are times RFC 3339 can express and ones it cannot:
// years outside 0–9999, sub-minute and out-of-range zone offsets, the
// zero time, a nil-location UTC time and a local one.
func codecEdgeTimes() []time.Time {
	base := time.Date(2016, 2, 3, 14, 0, 0, 123456789, time.UTC)
	return []time.Time{
		{}, base, base.Truncate(time.Second), base.Local(),
		base.In(time.FixedZone("", 2*3600)), base.In(time.FixedZone("CET", -(5*3600 + 30*60))),
		base.In(time.FixedZone("", 45)), base.In(time.FixedZone("", -3601)),
		base.In(time.FixedZone("", 24*3600)), base.In(time.FixedZone("", -30*3600)),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// edgeObservation draws an observation whose every field is, with some
// probability, one of the edges above; with plain=true only values the
// decoder's strict pass accepts are drawn.
func edgeObservation(rng *rand.Rand, plain bool) *Observation {
	str := func() string { return pick(rng, codecEdgeStrings) }
	flt := func() float64 { return pick(rng, codecEdgeFloats) }
	tm := func() time.Time { return pick(rng, codecEdgeTimes()) }
	if plain {
		str = func() string { return pick(rng, []string{"", "u1", "LGE NEXUS 5", "1.2.9", "~", "x y"}) }
		flt = func() float64 { return pick(rng, codecEdgeFloats[:16]) }
		tm = func() time.Time { return pick(rng, codecEdgeTimes()[:8]) }
	}
	o := &Observation{
		UserID: str(), DeviceModel: str(), AppVersion: str(),
		Mode: Mode(rng.Intn(5) - 1), SPL: flt(), Activity: Activity(rng.Intn(9) - 1),
		ActivityConfidence: flt(), SensedAt: tm(), ReceivedAt: tm(),
	}
	if rng.Intn(2) == 0 {
		o.ID = str()
	}
	if rng.Intn(3) > 0 {
		o.Loc = &Location{Point: geo.Point{Lat: flt(), Lon: flt()}, AccuracyM: flt(), Provider: Provider(rng.Intn(5) - 1)}
	}
	return o
}

// checkEncode requires Encode and IngestBody.AppendJSON to write json.Marshal's
// bytes and to fail when, and as, it fails.
func checkEncode(t *testing.T, o *Observation) {
	t.Helper()
	want, wantErr := json.Marshal(o)
	got, err := o.Encode()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Encode error %v, json.Marshal error %v (%+v)", err, wantErr, o)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode\n got %s\nwant %s", got, want)
	}
	body := &IngestBody{ClientID: o.UserID, Observations: []*Observation{o, nil, o}}
	want, wantErr = json.Marshal(body)
	got, err = body.AppendJSON([]byte("prefix"))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("body error %v, json.Marshal error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("body\n got %s\nwant prefix%s", got, want)
	}
}

// checkDecode requires both decoders to accept data exactly when
// json.Unmarshal does, with its result and its error, and reports
// whether the strict pass took the observation or the body.
func checkDecode(t *testing.T, data []byte) (fast bool) {
	t.Helper()
	var wantObs Observation
	wantErr := json.Unmarshal(data, &wantObs)
	got, err := DecodeObservation(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != "decode observation: "+wantErr.Error() {
		t.Fatalf("DecodeObservation(%q) error %v, json.Unmarshal error %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, &wantObs) {
		t.Fatalf("DecodeObservation(%q)\n got %+v\nwant %+v", data, got, &wantObs)
	}
	var wantBody IngestBody
	wantErr = json.Unmarshal(data, &wantBody)
	gotBody, err := DecodeIngestBody(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != "decode ingest body: "+wantErr.Error() {
		t.Fatalf("DecodeIngestBody(%q) error %v, json.Unmarshal error %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(gotBody, &wantBody) {
		t.Fatalf("DecodeIngestBody(%q)\n got %+v\nwant %+v", data, gotBody, &wantBody)
	}
	// What the strict pass accepts must be what encoding/json makes of
	// it, not merely what the fallback would have made of it.
	s := scanner{data: data}
	if o := new(Observation); s.observation(o) && s.end() {
		if !reflect.DeepEqual(o, &wantObs) {
			t.Fatalf("strict pass took %q as %+v, encoding/json as %+v", data, o, &wantObs)
		}
		fast = true
	}
	s = scanner{data: data}
	if b := new(IngestBody); s.ingestBody(b) && s.end() {
		if !reflect.DeepEqual(b, &wantBody) {
			t.Fatalf("strict pass took %q as %+v, encoding/json as %+v", data, b, &wantBody)
		}
		fast = true
	}
	return fast
}

// variants rewrites a canonical encoding into forms that are the same
// value (whitespace, key order) and forms the strict pass leaves to
// encoding/json (repeated, unknown and case-folded keys, null, escapes,
// trailing data).
func variants(rng *rand.Rand, canon []byte) [][]byte {
	var indented bytes.Buffer
	_ = json.Indent(&indented, canon, " ", "\t")
	out := [][]byte{canon, indented.Bytes()}
	var fields map[string]json.RawMessage
	if json.Unmarshal(canon, &fields) == nil && fields != nil {
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		shuffled := []byte{'{'}
		for i, k := range keys {
			if i > 0 {
				shuffled = append(shuffled, ',')
			}
			shuffled = append(append(append(shuffled, jsonQuote(k)...), ':'), fields[k]...)
		}
		out = append(out, append(shuffled, '}'))
	}
	inner := canon[:len(canon)-1]
	for _, tail := range []string{`,"spl":1}`, `,"unknown":1}`, `,"loc":null}`, `,"mode":1.0}`, `,"mode":1e0}`, `,"spl":1e400}`, `,"deviceModel":"A\u0042"}`, `,"sensedAt":"2016-02-03T14:00:00+01:00"}`} {
		out = append(out, append(append([]byte(nil), inner...), tail...))
	}
	out = append(out,
		bytes.Replace(canon, []byte(`"userId"`), []byte(`"USERID"`), 1),
		bytes.Replace(canon, []byte(`"lat"`), []byte(`"Lat"`), 1),
		append(append([]byte(nil), canon...), '}'),
		append(append([]byte(nil), canon...), canon...),
		append(append([]byte(nil), canon...), " \n"...),
		canon[:len(canon)/2],
	)
	return out
}

func jsonQuote(s string) []byte { b, _ := json.Marshal(s); return b }

// TestObservationCodecEdges is the seeded property test over the edges
// the scalar rules exist for: every drawn observation, and bodies of
// them, encode to json.Marshal's bytes and errors, and every variant of
// their encoding decodes to json.Unmarshal's result and error. Drawn
// from plain values only, the canonical form must take the strict pass.
func TestObservationCodecEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fast := 0
	for i := 0; i < 2000; i++ {
		plain := i%2 == 0
		o := edgeObservation(rng, plain)
		checkEncode(t, o)
		canon, err := json.Marshal(o)
		if err != nil {
			continue
		}
		for j, v := range variants(rng, canon) {
			if checkDecode(t, v) && j < 3 {
				fast++
			}
		}
		body, _ := json.Marshal(IngestBody{ClientID: "c1", Observations: []*Observation{o, o}})
		for _, v := range variants(rng, body) {
			checkDecode(t, v)
		}
		if plain && !checkDecode(t, canon) {
			t.Fatalf("strict pass refused the canonical form %s", canon)
		}
		if plain && !checkDecode(t, body) {
			t.Fatalf("strict pass refused the canonical body %s", body)
		}
	}
	if fast < 2000 {
		t.Fatalf("strict pass took %d canonical, indented and reordered forms, want ≥ 2000", fast)
	}
	for _, data := range []string{`null`, `{}`, `[]`, ``, ` `, `{"observations":[]}`, `{"observations":null}`, `{"observations":[null]}`, `{"clientId":"c","observations":[{}]}`, `{"loc":{}}`, `{"loc":{"point":{}}}`, `{"mode":-0}`, `{"mode":9223372036854775808}`, `{"spl":-0.0e+0}`, `{"spl":01}`, `{"spl":1.}`, `{"spl":.5}`, `{"spl":-}`, `{"spl":1e}`, `{"id":"a"}{"id":"b"}`} {
		checkDecode(t, []byte(data))
	}
}

func FuzzObservationEncode(f *testing.F) {
	f.Add("", "u1", "LGE NEXUS 5", "1.3", 61.5, 48.85, 2.35, 25.0, 0.9, int64(1454508000), int64(123456789), int32(0), 1, true)
	f.Add("id", "<&>\"", "é ", "\xff", 1e-7, 1e21, -0.0, 1e300, 0.5, int64(-62135596900), int64(0), int32(45), 3, false)
	f.Add("x", "y", "z", "w", 0.0, 0.0, 0.0, 0.0, 0.0, int64(253402300800), int64(1), int32(-3600), 2, true)
	f.Fuzz(func(t *testing.T, id, user, model, version string, spl, lat, lon, acc, conf float64, sec, nsec int64, offset int32, mode int, localized bool) {
		at := time.Unix(sec, nsec).UTC()
		if offset != 0 {
			at = at.In(time.FixedZone("", int(offset)))
		}
		o := &Observation{
			ID: id, UserID: user, DeviceModel: model, AppVersion: version, Mode: Mode(mode), SPL: spl,
			Activity: Activity(-mode), ActivityConfidence: conf, SensedAt: at, ReceivedAt: at.Add(time.Duration(nsec)),
		}
		if localized {
			o.Loc = &Location{Point: geo.Point{Lat: lat, Lon: lon}, AccuracyM: acc, Provider: Provider(mode)}
		}
		checkEncode(t, o)
	})
}

func FuzzObservationDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		o := edgeObservation(rng, i%2 == 0)
		if b, err := json.Marshal(o); err == nil {
			f.Add(b)
		}
		if b, err := json.Marshal(IngestBody{ClientID: "c1", Observations: []*Observation{o}}); err == nil {
			f.Add(b)
		}
	}
	for _, s := range []string{`null`, `{"observations":[null]}`, `{"USERID":"u"}`, `{"spl":1,"spl":2}`, `{"mode":1.5}`, `{"deviceModel":"é"}`, `{} x`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// Sinks keep the benchmarked results alive, as a transport keeps them.
var (
	codecSink   []byte
	decodedSink *Observation
	bodySink    *IngestBody
)

// BenchmarkObservationCodec times the codec on the upload paths: one
// observation each way (a broker message), and a REST body of 50 each
// way. The same benchmark over encoding/json, which was the codec
// before this one (json.Marshal / json.Unmarshal of the same values),
// and over this codec, test binaries alternated three times a side
// (-benchtime 20000x -count 2 -cpu 1, 2 vCPU Xeon 2.1 GHz, Go 1.24;
// ranges over the six runs):
//
//	               encoding/json                   this codec
//	encode/one       2.1–3.8 µs  480 B    3 allocs   0.92–1.09 µs  384 B   1 alloc
//	decode/one       6.7–8.9 µs  592 B   13 allocs   1.38–1.50 µs  224 B   5 allocs
//	encode/body50     96–137 µs   21 KB 101 allocs     41–71 µs     63 KB  16 allocs
//	decode/body50    216–268 µs   12 KB 238 allocs     57–110 µs    11 KB 223 allocs
func BenchmarkObservationCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	obs := make([]*Observation, 50)
	for i := range obs {
		o := validObservation()
		o.UserID = "3f9c2a1be07d4c55"
		o.SPL = 35 + 50*rng.Float64()
		o.ActivityConfidence = rng.Float64()
		o.SensedAt = time.Date(2026, 3, 1, 12, 0, 0, rng.Intn(1e9), time.UTC).Add(time.Duration(i) * time.Second)
		if i%5 < 3 {
			o.Loc = nil
		} else {
			o.Loc.Point = geo.Point{Lat: 48.8 + 0.1*rng.Float64(), Lon: 2.25 + 0.2*rng.Float64()}
			o.Loc.AccuracyM = 5 + 90*rng.Float64()
		}
		obs[i] = o
	}
	one, err := obs[3].Encode()
	if err != nil {
		b.Fatal(err)
	}
	body := &IngestBody{ClientID: "3f9c2a1be07d4c55", Observations: obs}
	raw, err := body.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if codecSink, err = obs[3].Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if decodedSink, err = DecodeObservation(one); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/body50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if codecSink, err = body.AppendJSON(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/body50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if bodySink, err = DecodeIngestBody(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
