package goflow

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
)

// Goldens for the way out. Every body the REST layer builds from rows —
// observation pages, cursor pages, NDJSON and CSV exports — must be,
// byte for byte, what encoding/json (and encoding/csv) write for the
// same documents held as maps, which is what the handlers sent before
// rows. The reference is computed here, from Row.Doc: maps, the policy
// applied by building a second map, the reflective encoder.

// goldenPolicy lists userId, which no requester may ever receive, and
// omits _id.
var goldenPolicy = DataPolicy{SharedFields: []string{"spl", "zone", "sensedAt", "localized", "userId", "deviceModel"}}

// seedGoldenAPI registers SC under goldenPolicy and ingests a dozen
// observations: localized or not (two shapes), out of sensing order, and
// with device models the HTML-safe encoder has to escape.
func seedGoldenAPI(t *testing.T) (*Server, string) {
	t.Helper()
	server, ts := newAPI(t)
	if _, err := server.RegisterApp("SC", "SoundCity", goldenPolicy); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
	models := []string{"LGE NEXUS 5", `Galaxy <S&7> "edge"`, "Xperia Z\u00e9 \u2028"}
	for i := 0; i < 12; i++ {
		at := base.Add(time.Duration(i*7%12)*time.Hour + time.Duration(i)*time.Millisecond)
		o := obsAt(t, models[i%3], 40.25+float64(i), i%2 == 0, at)
		if _, err := server.Data.Ingest("SC", "c"+strconv.Itoa(i%2), o, at.Add(3*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	return server, ts.URL
}

func httpBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// docsOf is the reference's view of a read: the rows as maps, projected
// to the policy — userId never — when the requester is foreign.
func docsOf(rows []docstore.Row, foreign bool) []docstore.Doc {
	docs := make([]docstore.Doc, len(rows))
	for i, r := range rows {
		docs[i] = r.Doc(nil)
		if !foreign {
			continue
		}
		for k := range docs[i] {
			if k == "userId" || !slices.Contains(goldenPolicy.SharedFields, k) {
				delete(docs[i], k)
			}
		}
	}
	return docs
}

func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

func TestRESTGoldenObservationPages(t *testing.T) {
	server, url := seedGoldenAPI(t)
	ctx := t.Context()

	for _, tc := range []struct {
		name, query string
		q           Query
		foreign     bool
		want        int
	}{
		{"own app", "", Query{}, false, 12},
		{"own app, filtered and paged", "?localized=true&skip=1&limit=4", Query{Localized: ptr(true), Skip: 1, Limit: 4}, false, 4},
		{"foreign requester", "?requester=OTHER&limit=7", Query{Limit: 7}, true, 7},
		{"empty", "?model=none", Query{DeviceModel: "none"}, false, 0},
		{"empty, foreign requester", "?model=none&requester=OTHER", Query{DeviceModel: "none"}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.q.AppID = "SC"
			rows, err := server.Data.Retrieve(ctx, tc.q)
			if err != nil || len(rows) != tc.want {
				t.Fatalf("reference read: %d rows, %v", len(rows), err)
			}
			docs := docsOf(rows, tc.foreign)
			status, body := httpBody(t, url+"/v1/apps/SC/observations"+tc.query)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			assertSameBytes(t, "page", body, encoded(t, map[string]any{"count": len(docs), "observations": docs}))
			if tc.want == 0 && !bytes.Contains(body, []byte(`"observations":[]`)) {
				t.Fatalf("an empty page must hold an empty list: %s", body)
			}
			if tc.foreign && (bytes.Contains(body, []byte("userId")) || bytes.Contains(body, []byte("_id"))) {
				t.Fatalf("the foreign page leaks a field outside the policy: %s", body)
			}
		})
	}

	t.Run("cursor pages", func(t *testing.T) {
		for _, foreign := range []bool{false, true} {
			requester := ""
			if foreign {
				requester = "&requester=OTHER"
			}
			token, anchor := "", ""
			for page := 0; page < 4; page++ {
				rows, lastID, err := server.Data.RetrieveAfter(ctx, anchor, Query{AppID: "SC", Limit: 5})
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]any{"count": len(rows), "observations": docsOf(rows, foreign)}
				if lastID != "" {
					want["nextCursor"] = EncodeCursor(lastID)
				}
				status, body := httpBody(t, url+"/v1/apps/SC/observations?limit=5&cursor="+token+requester)
				if status != http.StatusOK {
					t.Fatalf("status %d: %s", status, body)
				}
				assertSameBytes(t, "cursor page "+strconv.Itoa(page), body, encoded(t, want))
				// 12 observations: pages of 5, 5, 2 and, from the last anchor,
				// none — which carries no nextCursor.
				if wantRows := []int{5, 5, 2, 0}[page]; len(rows) != wantRows || (lastID == "") != (wantRows == 0) {
					t.Fatalf("page %d: %d rows, anchor %q", page, len(rows), lastID)
				}
				if lastID != "" {
					token, anchor = EncodeCursor(lastID), lastID
				}
			}
		}
	})

	t.Run("exports", func(t *testing.T) {
		rows, err := server.Data.Retrieve(ctx, Query{AppID: "SC"})
		if err != nil || len(rows) != 12 {
			t.Fatalf("reference read: %d rows, %v", len(rows), err)
		}
		for _, foreign := range []bool{false, true} {
			requester := ""
			if foreign {
				requester = "&requester=OTHER"
			}
			docs := docsOf(rows, foreign)

			var ndjson bytes.Buffer
			for _, d := range docs {
				ndjson.Write(encoded(t, d))
			}
			status, body := httpBody(t, url+"/v1/apps/SC/observations/export?format=ndjson"+requester)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			assertSameBytes(t, "ndjson export", body, ndjson.Bytes())

			// CSV: the sorted union of the fields, one record per document,
			// an absent field an empty cell.
			var columns []string
			for _, d := range docs {
				for k := range d {
					columns = append(columns, k)
				}
			}
			slices.Sort(columns)
			columns = slices.Compact(columns)
			var table bytes.Buffer
			cw := csv.NewWriter(&table)
			_ = cw.Write(columns)
			for _, d := range docs {
				record := make([]string, len(columns))
				for i, col := range columns {
					record[i] = csvCell(d[col])
				}
				_ = cw.Write(record)
			}
			cw.Flush()
			status, body = httpBody(t, url+"/v1/apps/SC/observations/export?format=csv"+requester)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			assertSameBytes(t, "csv export", body, table.Bytes())
			if foreign && (bytes.Contains(body, []byte("userId")) || bytes.Contains(body, []byte("_id")) || slices.Contains(columns, "userId")) {
				t.Fatalf("the foreign export leaks a field outside the policy: %s", body)
			}
		}
	})
}

func ptr[T any](v T) *T { return &v }

// TestObservationPageUnencodableDocument: a page is encoded whole before
// it answers, so a stored value JSON cannot express — NaN — answers 500
// with the usual error body wherever in the page its row sits, and the
// pages that do not hold it are served.
func TestObservationPageUnencodableDocument(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
		bad  int // position of the bad row in sensing order
	}{
		{"first row", 3, 0},
		{"past row 200 of 300", 300, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, ts := newAPI(t)
			if _, err := server.RegisterApp("SC", "SoundCity", DataPolicy{SharedFields: []string{"zone"}}); err != nil {
				t.Fatal(err)
			}
			base := time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC)
			for i := 0; i < tc.rows; i++ {
				o := obsAt(t, "LGE NEXUS 5", 50, true, base.Add(time.Duration(i)*time.Minute))
				id, err := server.Data.Ingest("SC", "c1", o, o.SensedAt)
				if err != nil {
					t.Fatal(err)
				}
				// Ingest validates; the bad value arrives the way a legacy or
				// foreign writer's would, underneath it.
				if i == tc.bad {
					if err := server.Data.data.Update(ObservationsCollection, id, docstore.Doc{"spl": math.NaN()}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, path := range []string{"/v1/apps/SC/observations", "/v1/apps/SC/observations?cursor="} {
				status, body := httpBody(t, ts.URL+path)
				var answer map[string]string
				if status != http.StatusInternalServerError || json.Unmarshal(body, &answer) != nil ||
					!strings.Contains(answer["error"], "spl") || !strings.Contains(answer["error"], "NaN") {
					t.Fatalf("%s with a NaN at row %d = %d %q, want 500 and an error naming the field", path, tc.bad, status, body)
				}
			}
			// A page the bad row is not on, and a view its field is not in.
			for _, path := range []string{"/v1/apps/SC/observations?skip=" + strconv.Itoa(tc.bad+1), "/v1/apps/SC/observations?requester=OTHER"} {
				status, body := httpBody(t, ts.URL+path)
				var answer struct{ Count int }
				if status != http.StatusOK || json.Unmarshal(body, &answer) != nil {
					t.Fatalf("%s = %d %q", path, status, body)
				}
			}
		})
	}
}

// cancelAfter is an export's reader hanging up: it cancels a context
// once it has been handed the given number of lines.
type cancelAfter struct {
	lines  int
	cancel context.CancelFunc
	seen   int
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	w.seen += bytes.Count(p, []byte{'\n'})
	if w.seen >= w.lines {
		w.cancel()
	}
	return len(p), nil
}

// TestExportStopsWhenContextEnds: an export whose reader has gone stops
// — inside the page it is writing, or before it reads the next — with
// the context's error, instead of sorting and encoding what is left.
func TestExportStopsWhenContextEnds(t *testing.T) {
	const total = 2*exportPageSize + 10
	dm, _ := seededDataManager(t, total)
	for _, format := range []ExportFormat{NDJSON, CSV} {
		for _, tc := range []struct {
			name        string
			cancelAt    int // lines the reader takes before it hangs up
			wantWritten int
		}{
			{"inside a page", 1, 0},
			// The header is a line of a CSV export.
			{"between pages", exportPageSize + int(format-NDJSON), exportPageSize},
		} {
			ctx, cancel := context.WithCancel(t.Context())
			w := &cancelAfter{lines: tc.cancelAt, cancel: cancel}
			n, err := dm.Export(ctx, w, "SC", "SC", Query{}, format)
			cancel()
			if !errors.Is(err, context.Canceled) || n != tc.wantWritten {
				t.Fatalf("format %d, cancelled %s: Export = %d, %v; want %d, context.Canceled", format, tc.name, n, err, tc.wantWritten)
			}
			if w.seen >= tc.wantWritten+exportPageSize {
				t.Fatalf("format %d, cancelled %s: the export went on for %d lines", format, tc.name, w.seen)
			}
		}
		// A context that was never alive reads nothing.
		ctx, cancel := context.WithCancel(t.Context())
		cancel()
		w := &cancelAfter{cancel: func() {}}
		if n, err := dm.Export(ctx, w, "SC", "SC", Query{}, format); !errors.Is(err, context.Canceled) || n != 0 || w.seen != 0 {
			t.Fatalf("format %d on a cancelled context: Export = %d, %v after %d lines", format, n, err, w.seen)
		}
	}
}

// discardResponse is an http.ResponseWriter nobody reads.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestObservationPageAllocatesPerPageNotPerRow: reading a page as rows
// and writing it out allocates a fixed number of objects — the matcher,
// the hit list, the sort keys, the rows, the pooled buffer when it has to
// grow — whatever the number of rows: no map and no buffer per document.
func TestObservationPageAllocatesPerPageNotPerRow(t *testing.T) {
	dm, _ := seededDataManager(t, 600)
	w := discardResponse{header: http.Header{}}
	perPage := func(limit int) float64 {
		return testing.AllocsPerRun(20, func() {
			rows, err := dm.Retrieve(t.Context(), Query{AppID: "SC", Limit: limit})
			if err != nil || len(rows) != limit {
				t.Fatalf("retrieve: %d rows, %v", len(rows), err)
			}
			WriteObservationPage(w, rows, nil, "")
		})
	}
	// The margin is for a buffer the pool dropped (it does, under -race)
	// growing back to a 500-row page by doubling.
	small, large := perPage(10), perPage(500)
	t.Logf("allocations per page: %.0f for 10 rows, %.0f for 500", small, large)
	if large > small+25 {
		t.Fatalf("a page of 10 rows costs %.0f allocations, one of 500 rows %.0f", small, large)
	}
}
