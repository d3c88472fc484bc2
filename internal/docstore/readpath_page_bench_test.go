package docstore_test

import (
	"context"
	"io"
	"net/http"
	"testing"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/goflow"
)

var readPathSink int

// discardResponse is an http.ResponseWriter whose body goes to
// io.Discard.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Write(p []byte) (int, error) { return io.Discard.Write(p) }

// BenchmarkReadPath times the document reads the REST API serves from
// the observations collection — a sorted page, a count and a cursor
// page, each for one {appId, zone} — against a 50 k-document store,
// rotating over the zones so both the heavy head and the light tail of
// the skew are read. find_page and cursor_page return documents, as the
// Doc-returning reads still do; the _json pair is the reader the REST
// API is now: rows, written out through its page writer. Their
// allocations per page do not grow with the page — no map and, for the
// scalar values an observation is made of, no buffer per document.
func BenchmarkReadPath(b *testing.B) {
	col, zones := docstore.ObservationStore(b, 50_000, docstore.ProductionIndexes)
	ctx := context.Background()
	filter := func(i int) docstore.Doc { return docstore.Doc{"appId": "SC", "zone": zones[i%len(zones)]} }
	page := docstore.FindOptions{SortField: "sensedAt", Limit: 100}
	w := discardResponse{header: http.Header{}}
	// Each cursor read is a zone's second page: it resumes after an
	// anchor in the middle of the collection, as a page walk does.
	anchors := make([]string, len(zones))
	for i := range zones {
		first, err := col.FindRowsAfterContext(ctx, "", filter(i), 50)
		if err != nil || len(first) != 50 {
			b.Fatalf("first page of %s: %d rows, %v", zones[i], len(first), err)
		}
		anchors[i] = first[49].Value(docstore.IDField).(string)
	}

	b.Run("find_page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			docs, err := col.FindContext(ctx, filter(i), page)
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += len(docs)
		}
	})
	b.Run("find_page_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := col.FindRowsContext(ctx, filter(i), page)
			if err != nil {
				b.Fatal(err)
			}
			goflow.WriteObservationPage(w, rows, nil, "")
			readPathSink += len(rows)
		}
	})
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := col.CountContext(ctx, filter(i))
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += n
		}
	})
	b.Run("cursor_page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			docs, err := col.FindAfterContext(ctx, anchors[i%len(zones)], filter(i), 50)
			if err != nil {
				b.Fatal(err)
			}
			readPathSink += len(docs)
		}
	})
	b.Run("cursor_page_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := col.FindRowsAfterContext(ctx, anchors[i%len(zones)], filter(i), 100)
			if err != nil {
				b.Fatal(err)
			}
			goflow.WriteObservationPage(w, rows, nil, goflow.EncodeCursor(anchors[i%len(zones)]))
			readPathSink += len(rows)
		}
	})
}
