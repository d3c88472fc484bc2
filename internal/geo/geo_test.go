package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Point
		wantErr error
	}{
		{"valid paris", Point{48.8566, 2.3522}, nil},
		{"valid extremes", Point{90, 180}, nil},
		{"valid negative extremes", Point{-90, -180}, nil},
		{"lat too high", Point{90.01, 0}, ErrInvalidLatitude},
		{"lat too low", Point{-90.01, 0}, ErrInvalidLatitude},
		{"lon too high", Point{0, 180.01}, ErrInvalidLongitude},
		{"lon too low", Point{0, -180.01}, ErrInvalidLongitude},
		{"nan lat", Point{math.NaN(), 0}, ErrInvalidLatitude},
		{"nan lon", Point{0, math.NaN()}, ErrInvalidLongitude},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if tt.wantErr == nil && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if tt.wantErr != nil && err != tt.wantErr {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDistanceKnownValues(t *testing.T) {
	paris := Point{48.8566, 2.3522}
	london := Point{51.5074, -0.1278}
	d := paris.DistanceMeters(london)
	// Paris-London great-circle distance is ~344 km.
	if d < 330000 || d > 355000 {
		t.Fatalf("Paris-London distance = %.0f m, want ~344 km", d)
	}
	if got := paris.DistanceMeters(paris); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		p := Point{clampLat(lat1), clampLon(lon1)}
		q := Point{clampLat(lat2), clampLon(lon2)}
		d1 := p.DistanceMeters(q)
		d2 := q.DistanceMeters(p)
		return math.Abs(d1-d2) < 1e-6*math.Max(1, d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetApproximatesDistance(t *testing.T) {
	p := Point{48.8566, 2.3522}
	tests := []struct {
		north, east float64
	}{
		{1000, 0}, {0, 1000}, {-500, 0}, {0, -500}, {300, 400},
	}
	for _, tt := range tests {
		q := p.Offset(tt.north, tt.east)
		want := math.Hypot(tt.north, tt.east)
		got := p.DistanceMeters(q)
		if math.Abs(got-want) > want*0.01+0.1 {
			t.Errorf("Offset(%v,%v) distance = %.1f, want ~%.1f", tt.north, tt.east, got, want)
		}
	}
}

func TestBBoxContainsAndCenter(t *testing.T) {
	b := BBox{Min: Point{48, 2}, Max: Point{49, 3}}
	if !b.Contains(Point{48.5, 2.5}) {
		t.Error("center point should be contained")
	}
	if !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("corners should be contained (inclusive)")
	}
	if b.Contains(Point{47.99, 2.5}) {
		t.Error("point below box should not be contained")
	}
	c := b.center()
	if c.Lat != 48.5 || c.Lon != 2.5 {
		t.Errorf("Center() = %v, want (48.5, 2.5)", c)
	}
}

func TestBBoxExpand(t *testing.T) {
	b := BBox{Min: Point{48, 2}, Max: Point{49, 3}}
	out := b.expand(Point{50, 1})
	if out.Max.Lat != 50 || out.Min.Lon != 1 {
		t.Errorf("Expand() = %+v, want max.lat=50 min.lon=1", out)
	}
	if !out.Contains(Point{50, 1}) {
		t.Error("expanded box must contain the new point")
	}
	// Original box unchanged (value semantics).
	if b.Max.Lat != 49 {
		t.Error("Expand must not mutate the receiver")
	}
}

func TestBBoxValidate(t *testing.T) {
	good := BBox{Min: Point{48, 2}, Max: Point{49, 3}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid box: %v", err)
	}
	inverted := BBox{Min: Point{49, 2}, Max: Point{48, 3}}
	if err := inverted.Validate(); err == nil {
		t.Fatal("inverted box must fail validation")
	}
	badCorner := BBox{Min: Point{91, 2}, Max: Point{92, 3}}
	if err := badCorner.Validate(); err == nil {
		t.Fatal("out-of-range corner must fail validation")
	}
}

func clampLat(v float64) float64 {
	return math.Mod(math.Abs(v), 80)
}

func clampLon(v float64) float64 {
	return math.Mod(math.Abs(v), 170)
}

// center returns the box center.
func (b BBox) center() Point {
	return Point{
		Lat: (b.Min.Lat + b.Max.Lat) / 2,
		Lon: (b.Min.Lon + b.Max.Lon) / 2,
	}
}

// expand grows the box so it contains p.
func (b BBox) expand(p Point) BBox {
	out := b
	out.Min.Lat = math.Min(out.Min.Lat, p.Lat)
	out.Min.Lon = math.Min(out.Min.Lon, p.Lon)
	out.Max.Lat = math.Max(out.Max.Lat, p.Lat)
	out.Max.Lon = math.Max(out.Max.Lon, p.Lon)
	return out
}
