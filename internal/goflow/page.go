package goflow

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/urbancivics/goflow/internal/docstore"
)

// The way out for stored observations: pages and exports are encoded
// from rows (docstore.Row) into a recycled buffer, so what an answer
// costs is the bytes it sends.

// pageBuffers recycles the buffers observation pages and NDJSON exports
// are encoded into.
var pageBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledPage is the largest buffer the pool takes back. An
// unbounded page (limit 10 000) grows its buffer to several megabytes;
// kept, it would be pinned by the hundred-row pages that follow.
const maxPooledPage = 1 << 20

func putPageBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledPage {
		pageBuffers.Put(bp)
	}
}

// WriteObservationPage answers a request with one page of observations:
// {"count":n,"nextCursor":"…","observations":[…]}, nextCursor present
// when non-empty, each observation restricted to the fields keep
// accepts (nil keeps all; see DataManager.Visible) — byte for byte what
// encoding/json makes of the same page held as maps. A page, unlike an
// export, is one JSON value and was always held whole (encoding/json
// buffers a value before it writes it), so all of it is encoded before
// the status line is sent: a row that cannot be encoded (a stored NaN)
// answers 500 with the usual {"error":…} wherever in the page it sits,
// not 200 and a body that stops short. nextCursor is a token from
// EncodeCursor — base64url, which JSON writes as it stands.
func WriteObservationPage(w http.ResponseWriter, rows []docstore.Row, keep func(field string) bool, nextCursor string) {
	bp := pageBuffers.Get().(*[]byte)
	defer putPageBuffer(bp)
	buf := append((*bp)[:0], `{"count":`...)
	buf = strconv.AppendInt(buf, int64(len(rows)), 10)
	if nextCursor != "" {
		buf = append(buf, `,"nextCursor":"`...)
		buf = append(buf, nextCursor...)
		buf = append(buf, '"')
	}
	buf = append(buf, `,"observations":[`...)
	for i, r := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = r.AppendJSON(buf, keep); err != nil {
			*bp = buf
			writeErr(w, fmt.Errorf("encode observation %d of %d: %w", i+1, len(rows), err))
			return
		}
	}
	buf = append(buf, "]}\n"...)
	*bp = buf
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // a reader that has gone is not an error to report
}
