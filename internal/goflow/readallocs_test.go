package goflow

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// discardWriter is an http.ResponseWriter whose body goes nowhere.
type discardWriter struct{ header http.Header }

func (d discardWriter) Header() http.Header         { return d.header }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// readPathStore is a DataManager holding n observations ingested
// through ingestBatch in bodies of 50, spread over four zones — one of
// them holds half — and over n minutes, half of them localized; it
// returns the zones, the busiest first.
func readPathStore(t *testing.T, n int) (*DataManager, []string) {
	t.Helper()
	dm := NewDataManagerEngine(storage.NewLocal(docstore.NewStore()), newAccounts(t), geo.ParisZones())
	points := []geo.Point{{Lat: 48.8566, Lon: 2.3522}, {Lat: 48.87, Lon: 2.30}, {Lat: 48.84, Lon: 2.38}, {Lat: 48.83, Lon: 2.33}}
	zones := make([]string, len(points))
	for i, p := range points {
		zones[i] = dm.zones.ZoneID(p)
	}
	base := time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)
	for off := 0; off < n; off += 50 {
		obs := make([]*sensing.Observation, 50)
		at := make([]time.Time, 50)
		for i := range obs {
			k := off + i
			o := obsAt(t, "LGE NEXUS 5", 40+float64(k%50), true, base.Add(time.Duration(k)*time.Minute))
			o.Loc.Point = points[max(0, k%6-2)]
			obs[i], at[i] = o, o.SensedAt.Add(time.Second)
		}
		if _, err := dm.ingestBatch("SC", dm.accounts.Anonymize("client-1"), obs, at); err != nil {
			t.Fatal(err)
		}
	}
	return dm, zones
}

// TestReadPathAllocsDoNotGrowWithThePage: what a route does with a
// page of stored observations — sort it by sensing time, write it out,
// rebuild its observations, export it — allocates the same whatever the
// page's length, and no more than when every number and time of a
// stored observation was a heap box (the bounds below are what each
// page allocated then; rebuilding a page's observations then cost two
// allocations per row on top of the read); a count allocates the same
// whatever it counts. A number or a time boxed per row would show here
// as an allocation per row.
func TestReadPathAllocsDoNotGrowWithThePage(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("builds a 2 000-document store; counts allocations, which the race detector changes")
	}
	dm, zones := readPathStore(t, 2000)
	ctx := context.Background()
	w := discardWriter{header: http.Header{}}
	from := time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)
	to := from.Add(20 * time.Hour)
	rowsOf := func(limit int) []docstore.Row {
		rows, err := dm.Retrieve(ctx, Query{AppID: "SC", Zone: zones[0], Limit: limit})
		if err != nil || len(rows) != limit {
			t.Fatalf("page of %d: %d rows, %v", limit, len(rows), err)
		}
		return rows
	}
	anchor := func() string {
		rows, _, err := dm.RetrieveAfter(ctx, "", Query{Zone: zones[0], Limit: 10})
		if err != nil || len(rows) != 10 {
			t.Fatalf("first cursor page: %d rows, %v", len(rows), err)
		}
		return rows[9].Value(docstore.IDField).(string)
	}()
	var o sensing.Observation
	var buf []byte
	for _, tc := range []struct {
		name string
		// most is what the page may allocate.
		most float64
		page func(limit int)
	}{
		{"zone page sorted by sensedAt, written out", 15, func(limit int) {
			WriteObservationPage(w, rowsOf(limit), nil, "")
		}},
		{"cursor page, written out", 13, func(limit int) {
			rows, last, err := dm.RetrieveAfter(ctx, anchor, Query{Zone: zones[0], Limit: limit})
			if err != nil || len(rows) != limit {
				t.Fatalf("cursor page: %d rows, %v", len(rows), err)
			}
			WriteObservationPage(w, rows, nil, EncodeCursor(last))
		}},
		{"sensedAt range page, written out", 27, func(limit int) {
			rows, err := dm.Retrieve(ctx, Query{From: &from, To: &to, Limit: limit})
			if err != nil || len(rows) != limit {
				t.Fatalf("range page: %d rows, %v", len(rows), err)
			}
			WriteObservationPage(w, rows, nil, "")
		}},
		{"observations rebuilt from a page", 14, func(limit int) {
			for _, r := range rowsOf(limit) {
				if err := FillObservation(&o, r); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"NDJSON export page", 14, func(limit int) {
			var err error
			if buf, err = writeNDJSON(ctx, io.Discard, buf[:0], rowsOf(limit), nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		small := testing.AllocsPerRun(20, func() { tc.page(25) })
		large := testing.AllocsPerRun(20, func() { tc.page(100) })
		t.Logf("%s: %.0f allocations for 25 rows, %.0f for 100", tc.name, small, large)
		if large != small || large > tc.most {
			t.Errorf("%s: %.0f allocations for 25 rows, %.0f for 100; want the same, at most %.0f", tc.name, small, large, tc.most)
		}
	}

	// The typed rebuild on its own, over a page already read.
	rows := rowsOf(100)
	if n := testing.AllocsPerRun(20, func() {
		for _, r := range rows {
			if err := FillObservation(&o, r); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("rebuilding 100 observations into one allocates %.0f times, want 0", n)
	}

	counts := make([]float64, 2)
	for i, zone := range []string{zones[0], zones[3]} {
		counts[i] = testing.AllocsPerRun(20, func() {
			if _, err := dm.Count(ctx, Query{AppID: "SC", Zone: zone, From: &from}); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("count: %.0f allocations over the busiest zone, %.0f over the quietest", counts[0], counts[1])
	if counts[0] != counts[1] || counts[0] > 15 {
		t.Errorf("count: %.0f allocations over the busiest zone, %.0f over the quietest; want the same, at most 15", counts[0], counts[1])
	}
}
