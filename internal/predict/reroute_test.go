package predict

import (
	"context"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
)

// corridorSource fabricates a city where a loud corridor of zones cuts
// across the middle of the grid, except for a quiet gap at the western
// edge: a south→north journey through the center must either cross the
// corridor (loud) or detour west through the gap (quiet but longer).
type corridorSource struct {
	grid    *geo.ZoneGrid
	loudRow int
	gapCol  int
	loudDB  float64
	quietDB float64
	history int
}

func (s corridorSource) bucketsFor(level float64, asOf time.Time) []series.Bucket {
	out := make([]series.Bucket, 0, s.history)
	for i := s.history; i >= 1; i-- {
		var a series.Agg
		for j := 0; j < 10; j++ {
			a.Add(level)
		}
		out = append(out, series.Bucket{
			Start:  asOf.Add(-time.Duration(i) * 5 * time.Minute).UnixMilli(),
			Count:  a.Count,
			Energy: a.Energy,
		})
	}
	return out
}

func (s corridorSource) levelOf(zone string) (float64, bool) {
	row, col, ok := s.grid.ZoneCell(zone)
	if !ok {
		return 0, false
	}
	if row == s.loudRow && col != s.gapCol {
		return s.loudDB, true
	}
	return s.quietDB, true
}

func (s corridorSource) SeriesZoneBuckets(ctx context.Context, zone string, from, to time.Time) ([]series.Bucket, bool, error) {
	l, ok := s.levelOf(zone)
	if !ok {
		return nil, true, nil
	}
	return s.bucketsFor(l, to), true, nil
}

func (s corridorSource) SeriesAllBuckets(ctx context.Context, from, to time.Time) (map[string][]series.Bucket, bool, error) {
	out := make(map[string][]series.Bucket)
	for row := 0; row < s.grid.Rows(); row++ {
		for col := 0; col < s.grid.Cols(); col++ {
			z := s.grid.ZoneOf(row, col)
			l, _ := s.levelOf(z)
			out[z] = s.bucketsFor(l, to)
		}
	}
	return out, true, nil
}

func corridorRerouter(t *testing.T, loudDB, quietDB float64) (*Rerouter, *geo.ZoneGrid) {
	t.Helper()
	grid := geo.ParisZones()
	src := corridorSource{
		grid:    grid,
		loudRow: grid.Rows() / 2,
		gapCol:  0,
		loudDB:  loudDB,
		quietDB: quietDB,
		history: 6,
	}
	f := New(src, Config{}, simclock.NewSim(t0))
	return NewRerouter(grid, f), grid
}

// journey endpoints: south-center to north-center, forced across the
// loud corridor row.
func journeyEndpoints(grid *geo.ZoneGrid) (geo.Point, geo.Point) {
	from := grid.CellCenter(0, grid.Cols()/2)
	to := grid.CellCenter(grid.Rows()-1, grid.Cols()/2)
	return from, to
}

func TestQuietRouteProposesQuieterPath(t *testing.T) {
	r, grid := corridorRerouter(t, 85, 50)
	from, to := journeyEndpoints(grid)
	sug, err := r.QuietRoute(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Default.LAeqDB < thresholdDB {
		t.Fatalf("default path through an 85 dB corridor scored %.1f dB, expected above the %.0f dB threshold",
			sug.Default.LAeqDB, thresholdDB)
	}
	if !sug.Rerouted || sug.Alternative == nil {
		t.Fatalf("expected a reroute, got %+v", sug)
	}
	if sug.Alternative.LAeqDB > sug.Default.LAeqDB-minGainDB {
		t.Fatalf("alternative %.1f dB is not materially quieter than default %.1f dB",
			sug.Alternative.LAeqDB, sug.Default.LAeqDB)
	}
	if sug.Alternative.LengthM > maxDetour*sug.Default.LengthM {
		t.Fatalf("alternative length %.0f m exceeds the detour budget (%.1fx of %.0f m)",
			sug.Alternative.LengthM, maxDetour, sug.Default.LengthM)
	}
	// The alternative still has to cross the corridor row somewhere —
	// but must spend less of its length there. Both paths start and
	// end at the journey endpoints.
	if sug.Alternative.Points[0] != from || sug.Alternative.Points[len(sug.Alternative.Points)-1] != to {
		t.Fatal("alternative path must start and end at the journey endpoints")
	}
}

func TestQuietRouteNoRerouteWhenQuiet(t *testing.T) {
	// Corridor at 60 dB: above the quiet floor but the blended path
	// forecast stays below the 65 dB threshold.
	r, grid := corridorRerouter(t, 60, 45)
	from, to := journeyEndpoints(grid)
	sug, err := r.QuietRoute(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Rerouted || sug.Alternative != nil {
		t.Fatalf("quiet default path must not reroute, got %+v", sug)
	}
	if sug.Default.LAeqDB >= thresholdDB {
		t.Fatalf("default path scored %.1f dB, expected below threshold", sug.Default.LAeqDB)
	}
}

func TestQuietRouteUniformlyLoudNoAlternative(t *testing.T) {
	// Every zone loud: the default crosses the threshold but no
	// materially quieter path exists — must not propose a detour for
	// nothing.
	grid := geo.ParisZones()
	src := corridorSource{grid: grid, loudRow: -1, gapCol: -1, loudDB: 0, quietDB: 80, history: 6}
	f := New(src, Config{}, simclock.NewSim(t0))
	r := NewRerouter(grid, f)
	from, to := journeyEndpoints(grid)
	sug, err := r.QuietRoute(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Default.LAeqDB < thresholdDB {
		t.Fatalf("uniform 80 dB city must cross the threshold, got %.1f", sug.Default.LAeqDB)
	}
	if sug.Rerouted {
		t.Fatalf("no quieter path exists, yet rerouted: %+v", sug)
	}
}

func TestQuietRouteOutsideArea(t *testing.T) {
	r, grid := corridorRerouter(t, 85, 50)
	from, _ := journeyEndpoints(grid)
	if _, err := r.QuietRoute(context.Background(), from, geo.Point{Lat: 0, Lon: 0}); err != ErrOutsideArea {
		t.Fatalf("err = %v, want ErrOutsideArea", err)
	}
}

func TestQuietRouteDeterministic(t *testing.T) {
	r, grid := corridorRerouter(t, 85, 50)
	from, to := journeyEndpoints(grid)
	a, err := r.QuietRoute(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.QuietRoute(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if a.Default.LAeqDB != b.Default.LAeqDB || a.Rerouted != b.Rerouted {
		t.Fatalf("reroute answers differ across identical calls:\n%+v\n%+v", a, b)
	}
	if a.Alternative != nil {
		if b.Alternative == nil || a.Alternative.LAeqDB != b.Alternative.LAeqDB ||
			len(a.Alternative.Zones) != len(b.Alternative.Zones) {
			t.Fatalf("alternative paths differ:\n%+v\n%+v", a.Alternative, b.Alternative)
		}
	}
}
