package sensing

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/jsonenc"
)

// The observation's JSON codec: the one wire form an observation has
// on both upload transports — a broker message body, and an element of
// a REST upload body — written and read without reflection.
//
// The encoder's contract is byte equality: Encode and
// IngestBody.AppendJSON write exactly what json.Marshal writes for the
// same value, and error exactly when it errors; the scalars go through
// jsonenc, which also writes stored rows. The decoder makes one strict
// pass over the form the encoder writes — known keys, exact case, any
// order, each at most once; strings of printable ASCII without
// escapes; numbers by the JSON grammar, parsed with strconv; times
// through time.Time.UnmarshalJSON, which is what encoding/json calls —
// and hands any other input, as a whole, to json.Unmarshal, so escapes,
// non-ASCII, null, unknown, repeated or case-folded keys get the
// library's result and the library's error. FuzzObservationEncode,
// FuzzObservationDecode and TestObservationCodecEdges hold both halves
// to encoding/json.
// DESIGN.md §9 "Way in".

// IngestBody is the REST upload body (POST /v1/apps/{app}/observations):
// one client's buffered observations. The client that writes it and the
// server that reads it share this one definition.
type IngestBody struct {
	ClientID     string         `json:"clientId"`
	Observations []*Observation `json:"observations"`
}

// Encode marshals the observation to JSON for broker transport.
func (o *Observation) Encode() ([]byte, error) {
	// 384 bytes hold a localized observation with a typical device
	// model in one allocation.
	b, err := o.appendJSON(make([]byte, 0, 384))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// appendJSON appends the observation as json.Marshal writes it (a nil
// observation as null) and returns the extended buffer.
func (o *Observation) appendJSON(dst []byte) ([]byte, error) {
	if o == nil {
		return append(dst, "null"...), nil
	}
	var err error
	dst = append(dst, '{')
	if o.ID != "" {
		dst = jsonenc.AppendString(append(dst, `"id":`...), o.ID)
		dst = append(dst, ',')
	}
	dst = jsonenc.AppendString(append(dst, `"userId":`...), o.UserID)
	dst = jsonenc.AppendString(append(dst, `,"deviceModel":`...), o.DeviceModel)
	dst = jsonenc.AppendString(append(dst, `,"appVersion":`...), o.AppVersion)
	dst = strconv.AppendInt(append(dst, `,"mode":`...), int64(o.Mode), 10)
	if dst, err = jsonenc.AppendFloat(append(dst, `,"spl":`...), o.SPL); err != nil {
		return dst, err
	}
	if l := o.Loc; l != nil {
		if dst, err = jsonenc.AppendFloat(append(dst, `,"loc":{"point":{"lat":`...), l.Point.Lat); err != nil {
			return dst, err
		}
		if dst, err = jsonenc.AppendFloat(append(dst, `,"lon":`...), l.Point.Lon); err != nil {
			return dst, err
		}
		if dst, err = jsonenc.AppendFloat(append(dst, `},"accuracyM":`...), l.AccuracyM); err != nil {
			return dst, err
		}
		dst = strconv.AppendInt(append(dst, `,"provider":`...), int64(l.Provider), 10)
		dst = append(dst, '}')
	}
	dst = strconv.AppendInt(append(dst, `,"activity":`...), int64(o.Activity), 10)
	if dst, err = jsonenc.AppendFloat(append(dst, `,"activityConfidence":`...), o.ActivityConfidence); err != nil {
		return dst, err
	}
	if dst, err = jsonenc.AppendTime(append(dst, `,"sensedAt":`...), o.SensedAt); err != nil {
		return dst, err
	}
	// omitempty never omits a struct, so a zero receivedAt is written.
	if dst, err = jsonenc.AppendTime(append(dst, `,"receivedAt":`...), o.ReceivedAt); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// AppendJSON appends the body as json.Marshal writes it and returns
// the extended buffer.
func (b *IngestBody) AppendJSON(dst []byte) ([]byte, error) {
	dst = jsonenc.AppendString(append(dst, `{"clientId":`...), b.ClientID)
	if b.Observations == nil {
		return append(dst, `,"observations":null}`...), nil
	}
	dst = append(dst, `,"observations":[`...)
	for i, o := range b.Observations {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = o.appendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// DecodeObservation unmarshals an observation from broker transport.
func DecodeObservation(data []byte) (*Observation, error) {
	s := scanner{data: data}
	if o := new(Observation); s.observation(o) && s.end() {
		return o, nil
	}
	var o Observation
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("decode observation: %w", err)
	}
	return &o, nil
}

// DecodeIngestBody unmarshals a REST upload body. Every string it
// returns is a copy: nothing points into data.
func DecodeIngestBody(data []byte) (*IngestBody, error) {
	s := scanner{data: data}
	if b := new(IngestBody); s.ingestBody(b) && s.end() {
		return b, nil
	}
	var b IngestBody
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("decode ingest body: %w", err)
	}
	return &b, nil
}

// scanner is the decoder's strict pass. Each method reads one value at
// the cursor and reports false for anything outside the form it
// accepts; the caller then drops what it decoded and asks
// encoding/json instead.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) ingestBody(b *IngestBody) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "clientId":
			return once(&seen, 1) && s.str(&b.ClientID)
		case "observations":
			if !once(&seen, 2) || !s.next('[') {
				return false
			}
			b.Observations = make([]*Observation, 0, len(s.data)/256)
			if s.next(']') {
				return true
			}
			for {
				o := new(Observation)
				if !s.observation(o) {
					return false
				}
				b.Observations = append(b.Observations, o)
				if !s.next(',') {
					return s.next(']')
				}
			}
		}
		return false
	})
}

func (s *scanner) observation(o *Observation) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 1<<0) && s.str(&o.ID)
		case "userId":
			return once(&seen, 1<<1) && s.str(&o.UserID)
		case "deviceModel":
			return once(&seen, 1<<2) && s.str(&o.DeviceModel)
		case "appVersion":
			return once(&seen, 1<<3) && s.str(&o.AppVersion)
		case "mode":
			return once(&seen, 1<<4) && scanInt(s, &o.Mode)
		case "spl":
			return once(&seen, 1<<5) && s.float(&o.SPL)
		case "loc":
			if !once(&seen, 1<<6) {
				return false
			}
			o.Loc = new(Location)
			return s.location(o.Loc)
		case "activity":
			return once(&seen, 1<<7) && scanInt(s, &o.Activity)
		case "activityConfidence":
			return once(&seen, 1<<8) && s.float(&o.ActivityConfidence)
		case "sensedAt":
			return once(&seen, 1<<9) && s.time(&o.SensedAt)
		case "receivedAt":
			return once(&seen, 1<<10) && s.time(&o.ReceivedAt)
		}
		return false
	})
}

func (s *scanner) location(l *Location) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "point":
			var pseen uint16
			return once(&seen, 1) && s.object(func(key []byte) bool {
				switch string(key) {
				case "lat":
					return once(&pseen, 1) && s.float(&l.Point.Lat)
				case "lon":
					return once(&pseen, 2) && s.float(&l.Point.Lon)
				}
				return false
			})
		case "accuracyM":
			return once(&seen, 2) && s.float(&l.AccuracyM)
		case "provider":
			return once(&seen, 4) && scanInt(s, &l.Provider)
		}
		return false
	})
}

// once marks bit in seen and reports whether it was clear: a repeated
// key is left to encoding/json, where the last one wins.
func once(seen *uint16, bit uint16) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object reads an object, calling member with each key and the cursor
// at its value; member reads the value or reports false.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.quoted()
		if !ok || !s.next(':') || !member(key[1:len(key)-1]) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// str reads a string into *dst, as a copy.
func (s *scanner) str(dst *string) bool {
	tok, ok := s.quoted()
	if ok {
		*dst = string(tok[1 : len(tok)-1])
	}
	return ok
}

// float reads a number into *dst as encoding/json does: strconv's
// parse, an out-of-range value refused.
func (s *scanner) float(dst *float64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

// scanInt reads a number into an integer field as encoding/json does: a
// fraction or an exponent is refused, and so is a value the field's
// type cannot hold.
func scanInt[T ~int](s *scanner, dst *T) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = T(n)
	return err == nil
}

// time reads a time through time.Time.UnmarshalJSON, handed the quoted
// string as encoding/json hands it.
func (s *scanner) time(dst *time.Time) bool {
	tok, ok := s.quoted()
	return ok && dst.UnmarshalJSON(tok) == nil
}

// quoted reads a string and returns it, quotes included. Only printable
// ASCII without a backslash is accepted: its bytes are its value.
func (s *scanner) quoted() ([]byte, bool) {
	s.space()
	d, start := s.data, s.pos
	if start >= len(d) || d[start] != '"' {
		return nil, false
	}
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:s.pos], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads a number by the JSON grammar and returns its bytes.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	d, start := s.data, s.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.pos = i
	return d[start:i], true
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// next consumes c, after any whitespace, if it is the next byte.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.pos == len(s.data)
}

func (s *scanner) space() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
