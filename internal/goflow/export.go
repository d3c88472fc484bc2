package goflow

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
)

// Data packaging (Figure 2's crowd-sensed data management: "various
// packaging solutions (file, json stream, ...)"). Exports stream
// pages from the store so arbitrarily large result sets never
// materialize in memory at once.

// ExportFormat selects the packaging.
type ExportFormat int

// Export formats.
const (
	// NDJSON streams one JSON document per line.
	NDJSON ExportFormat = iota + 1
	// CSV streams a header plus one row per document.
	CSV
)

// ParseExportFormat converts a wire string to a format.
func ParseExportFormat(s string) (ExportFormat, error) {
	switch s {
	case "ndjson", "":
		return NDJSON, nil
	case "csv":
		return CSV, nil
	default:
		return 0, fmt.Errorf("goflow: unknown export format %q", s)
	}
}

// exportPageSize bounds per-page memory during exports.
const exportPageSize = 2000

// exportFlushBytes is how much NDJSON an export gathers before it hands
// it to the writer, and exportCheckRows how many CSV rows pass between
// looks at the context: inside a page, an export finds out at this
// cadence that nobody is reading any more.
const (
	exportFlushBytes = 64 << 10
	exportCheckRows  = 256
)

// Export streams the observations matching q (its Limit/Skip are
// overridden for paging) of ownerApp as visible to requestingApp, in
// the given format, straight from the stored rows. It returns the
// number of documents written. When ctx ends — the client hung up — the
// export stops, between pages or inside one, with ctx's error.
func (dm *DataManager) Export(ctx context.Context, w io.Writer, ownerApp, requestingApp string, q Query, format ExportFormat) (int, error) {
	if format != NDJSON && format != CSV {
		return 0, errors.New("goflow: invalid export format")
	}
	keep, err := dm.Visible(ownerApp, requestingApp)
	if err != nil {
		return 0, err
	}
	q.AppID = ownerApp
	q.Limit = exportPageSize
	bp := pageBuffers.Get().(*[]byte)
	defer putPageBuffer(bp)
	var table csvExport
	written := 0
	for q.Skip = 0; ; q.Skip += exportPageSize {
		rows, err := dm.Retrieve(ctx, q)
		if err != nil {
			return written, err
		}
		if format == NDJSON {
			*bp, err = writeNDJSON(ctx, w, (*bp)[:0], rows, keep)
		} else {
			err = table.write(ctx, w, rows, keep)
		}
		if err != nil {
			return written, err
		}
		written += len(rows)
		if len(rows) < exportPageSize {
			return written, nil
		}
	}
}

// writeNDJSON writes rows one JSON document per line, gathered in buf,
// which it returns for reuse.
func writeNDJSON(ctx context.Context, w io.Writer, buf []byte, rows []docstore.Row, keep func(string) bool) ([]byte, error) {
	for i, r := range rows {
		var err error
		if buf, err = r.AppendJSON(buf, keep); err != nil {
			return buf, fmt.Errorf("encode document: %w", err)
		}
		buf = append(buf, '\n')
		if len(buf) < exportFlushBytes && i < len(rows)-1 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		buf = buf[:0]
	}
	return buf, nil
}

// csvExport writes pages of rows as CSV with a stable column set: the
// union of the first page's fields, sorted (documents are homogeneous
// per app in practice).
type csvExport struct {
	cw      *csv.Writer
	columns *docstore.Fields
	record  []string
}

func (t *csvExport) write(ctx context.Context, w io.Writer, rows []docstore.Row, keep func(string) bool) error {
	if len(rows) == 0 {
		return nil
	}
	if t.cw == nil {
		t.cw = csv.NewWriter(w)
		fieldSet := make(map[string]bool)
		for _, r := range rows {
			for _, name := range r.Names() {
				if keep == nil || keep(name) {
					fieldSet[name] = true
				}
			}
		}
		header := make([]string, 0, len(fieldSet))
		for name := range fieldSet {
			header = append(header, name)
		}
		sort.Strings(header)
		if err := t.cw.Write(header); err != nil {
			return err
		}
		t.columns, t.record = docstore.NewFields(header...), make([]string, len(header))
	}
	for i, r := range rows {
		if i%exportCheckRows == exportCheckRows-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		vals := t.columns.In(r)
		for c := range t.record {
			t.record[c] = csvCell(vals.At(c))
		}
		if err := t.cw.Write(t.record); err != nil {
			return err
		}
	}
	t.cw.Flush()
	return t.cw.Error()
}

// csvCell renders a document value for CSV.
func csvCell(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case bool:
		return strconv.FormatBool(t)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case int:
		return strconv.Itoa(t)
	case time.Time:
		return t.Format(time.RFC3339Nano)
	default:
		raw, err := json.Marshal(t)
		if err != nil {
			return fmt.Sprintf("%v", t)
		}
		return string(raw)
	}
}
