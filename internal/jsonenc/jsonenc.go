// Package jsonenc appends the scalars GoFlow's JSON is made of —
// strings, float64s and times — byte for byte as encoding/json writes
// them, without reflection. A value that needs one of the library's
// rarer rules (an escape, a byte that is not ASCII, NaN or ±Inf, a time
// RFC 3339 cannot express) is handed to json.Marshal for that one
// value, so those rules and their errors are the library's own, not a
// second copy of them. The stored-row encoder (docstore.Row.AppendJSON)
// and the observation codec (package sensing) both write through it:
// DESIGN.md §9 "Way out" and "Way in".
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendString appends s as a JSON string. Printable ASCII without the
// characters the encoder escapes (the JSON ones and, as it is HTML-safe
// by default, <, > and &) is copied between quotes; anything else takes
// the encoder's own path.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always encodes
			return append(dst, raw...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f as a JSON number, or returns the encoder's
// error for NaN and ±Inf.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return appendMarshal(dst, f)
	}
	// The encoder's number format: exponents below 1e-6 and from 1e21
	// up, written e-7 and not e-07.
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendTime appends t as time.Time.MarshalJSON writes it: RFC 3339
// with nanoseconds for every time that format can express, and the
// encoder's output or error for the rest.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	const day = 24 * 60 * 60
	if _, offset := t.Zone(); offset%60 != 0 || offset <= -day || offset >= day {
		return appendMarshal(dst, t)
	}
	if y := t.Year(); y < 0 || y > 9999 {
		return appendMarshal(dst, t)
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}

// appendMarshal appends what json.Marshal writes for v, or returns its
// error.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, raw...), nil
}
