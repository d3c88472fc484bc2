package sensing

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
)

func validObservation() *Observation {
	return &Observation{
		UserID:             "u1",
		DeviceModel:        "LGE NEXUS 5",
		AppVersion:         "1.3",
		Mode:               Opportunistic,
		SPL:                61.5,
		Loc:                &Location{Point: geo.Point{Lat: 48.85, Lon: 2.35}, AccuracyM: 25, Provider: ProviderNetwork},
		Activity:           ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           time.Date(2016, 2, 3, 14, 0, 0, 0, time.UTC),
	}
}

func TestObservationValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Observation)
		wantErr bool
	}{
		{"valid", func(o *Observation) {}, false},
		{"valid unlocalized", func(o *Observation) { o.Loc = nil }, false},
		{"no user", func(o *Observation) { o.UserID = "" }, true},
		{"no model", func(o *Observation) { o.DeviceModel = "" }, true},
		{"bad mode", func(o *Observation) { o.Mode = 0 }, true},
		{"negative spl", func(o *Observation) { o.SPL = -1 }, true},
		{"absurd spl", func(o *Observation) { o.SPL = 141 }, true},
		{"bad location", func(o *Observation) { o.Loc.Point.Lat = 91 }, true},
		{"zero accuracy", func(o *Observation) { o.Loc.AccuracyM = 0 }, true},
		{"bad confidence", func(o *Observation) { o.ActivityConfidence = 1.5 }, true},
		{"no time", func(o *Observation) { o.SensedAt = time.Time{} }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := validObservation()
			tt.mutate(o)
			err := o.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestObservationEncodeDecodeRoundTrip(t *testing.T) {
	o := validObservation()
	data, err := o.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeObservation(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != o.UserID || got.SPL != o.SPL || got.Mode != o.Mode ||
		!got.SensedAt.Equal(o.SensedAt) || got.Loc == nil ||
		got.Loc.Provider != o.Loc.Provider || got.Loc.AccuracyM != o.Loc.AccuracyM {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestObservationRoundTripProperty(t *testing.T) {
	f := func(spl uint16, lat, lon int16, acc uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := validObservation()
		o.SPL = float64(spl % 131)
		o.Loc = &Location{
			Point:     geo.Point{Lat: float64(lat % 90), Lon: float64(lon % 180)},
			AccuracyM: float64(acc%2000) + 1,
			Provider:  providers()[rng.Intn(3)],
		}
		data, err := o.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeObservation(data)
		if err != nil {
			return false
		}
		return got.SPL == o.SPL && got.Loc.Point == o.Loc.Point &&
			got.Loc.AccuracyM == o.Loc.AccuracyM && got.Loc.Provider == o.Loc.Provider
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeObservationBadJSON(t *testing.T) {
	if _, err := DecodeObservation([]byte("{not json")); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Fatal("unknown mode must fail")
	}
}

func TestLocalized(t *testing.T) {
	o := validObservation()
	if !o.Localized() {
		t.Fatal("observation with Loc must be localized")
	}
	o.Loc = nil
	if o.Localized() {
		t.Fatal("observation without Loc must not be localized")
	}
}
