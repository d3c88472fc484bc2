package predict

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/simclock"
)

// benchDB seeds a series DB with `zones` warm zones × 36 buckets (a
// full 3 h window at 5 min) of history ending at t0.
func benchDB(zones, perBucket int) *series.DB {
	db := series.New(series.Options{})
	var lsn uint64
	for b := 0; b < 36; b++ {
		ts := t0.Add(time.Duration(b-36) * 5 * time.Minute)
		var pts []series.Point
		for z := 0; z < zones; z++ {
			zone := fmt.Sprintf("FR75%03d", z+1)
			for i := 0; i < perBucket; i++ {
				pts = append(pts, series.Point{
					TS:    ts.Add(time.Duration(i) * time.Second).UnixMilli(),
					Value: 45 + float64(z%30) + float64(b)*0.2 + float64(i%5),
					Zone:  zone,
				})
			}
		}
		lsn++
		db.AppendBatch(lsn, pts)
	}
	return db
}

// BenchmarkForecastSweep measures one whole-city forecast pass — what
// the background scheduler pays per interval — at increasing zone
// counts, each zone carrying a full 36-bucket window.
func BenchmarkForecastSweep(b *testing.B) {
	for _, zones := range []int{16, 100, 400} {
		b.Run(fmt.Sprintf("zones=%d", zones), func(b *testing.B) {
			f := New(dbSource{benchDB(zones, 10)}, Config{}, simclock.NewSim(t0))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fcs, err := f.Sweep(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(fcs) != zones {
					b.Fatalf("forecast %d zones, want %d", len(fcs), zones)
				}
			}
		})
	}
}

// BenchmarkZoneForecast measures a single-zone forecast — the
// GET /v1/zones/{zone}/forecast hot path.
func BenchmarkZoneForecast(b *testing.B) {
	f := New(dbSource{benchDB(100, 10)}, Config{}, simclock.NewSim(t0))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := f.ZoneForecast(ctx, "FR75050"); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkQuietRoute measures one POST /sc/quiet-route evaluation:
// sweep + default-path scoring + Dijkstra over the 10×10 Paris grid.
func BenchmarkQuietRoute(b *testing.B) {
	grid := geo.ParisZones()
	src := corridorSource{grid: grid, loudRow: grid.Rows() / 2, gapCol: 0, loudDB: 85, quietDB: 50, history: 36}
	f := New(src, Config{}, simclock.NewSim(t0))
	r := NewRerouter(grid, f)
	from, to := journeyEndpoints(grid)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug, err := r.QuietRoute(ctx, from, to)
		if err != nil {
			b.Fatal(err)
		}
		if !sug.Rerouted {
			b.Fatal("expected a reroute")
		}
	}
}
