// Package geo provides the geospatial primitives used throughout the
// GoFlow middleware: WGS-84 points, great-circle distances, bounding
// boxes, zone identifiers (the country+zip style ids that GoFlow uses to
// name location exchanges, e.g. "FR75013"), and regular grids used by the
// data assimilation engine to discretize a city.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for great-circle
// distance computations.
const EarthRadiusMeters = 6371000.0

var (
	// ErrInvalidLatitude reports a latitude outside [-90, 90].
	ErrInvalidLatitude = errors.New("geo: latitude out of range [-90, 90]")
	// ErrInvalidLongitude reports a longitude outside [-180, 180].
	ErrInvalidLongitude = errors.New("geo: longitude out of range [-180, 180]")
)

// Point is a WGS-84 coordinate.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Validate reports whether the point is a legal WGS-84 coordinate.
func (p Point) Validate() error {
	if p.Lat < -90 || p.Lat > 90 || math.IsNaN(p.Lat) {
		return ErrInvalidLatitude
	}
	if p.Lon < -180 || p.Lon > 180 || math.IsNaN(p.Lon) {
		return ErrInvalidLongitude
	}
	return nil
}

// DistanceMeters returns the great-circle (haversine) distance between
// two points in meters.
func (p Point) DistanceMeters(q Point) float64 {
	lat1 := p.Lat * math.Pi / 180
	lat2 := q.Lat * math.Pi / 180
	dLat := (q.Lat - p.Lat) * math.Pi / 180
	dLon := (q.Lon - p.Lon) * math.Pi / 180

	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	c := 2 * math.Atan2(math.Sqrt(a), math.Sqrt(1-a))
	return EarthRadiusMeters * c
}

// Offset returns the point displaced by the given distances (meters) to
// the north and east. It uses the local flat-earth approximation, which
// is accurate at city scale.
func (p Point) Offset(northMeters, eastMeters float64) Point {
	dLat := northMeters / EarthRadiusMeters * 180 / math.Pi
	dLon := eastMeters / (EarthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * 180 / math.Pi
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// BBox is a latitude/longitude-aligned bounding box.
type BBox struct {
	Min Point `json:"min"` // south-west corner
	Max Point `json:"max"` // north-east corner
}

// Contains reports whether the point lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.Min.Lat && p.Lat <= b.Max.Lat &&
		p.Lon >= b.Min.Lon && p.Lon <= b.Max.Lon
}

// Validate checks box orientation and corner validity.
func (b BBox) Validate() error {
	if err := b.Min.Validate(); err != nil {
		return err
	}
	if err := b.Max.Validate(); err != nil {
		return err
	}
	if b.Min.Lat > b.Max.Lat || b.Min.Lon > b.Max.Lon {
		return errors.New("geo: bbox min corner exceeds max corner")
	}
	return nil
}
