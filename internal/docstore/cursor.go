package docstore

import (
	"context"
	"errors"
	"fmt"
	"strconv"
)

// ErrCursorGone reports that a cursor's anchor document no longer
// exists and its position cannot be reconstructed. Callers translate
// it into HTTP 410 so clients restart the scan from the beginning.
var ErrCursorGone = errors.New("docstore: cursor anchor no longer exists")

// parseAutoID decodes an id minted by nextID ("d" + base36 ordinal).
// The ordinal gives a total order over auto-assigned ids that survives
// the anchor document's deletion: it is derived from the id string
// alone, not from the document.
func parseAutoID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'd' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 36, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// FindAfterContext returns up to limit documents matching filter that
// sit strictly after the document afterID in insertion order. An empty
// afterID starts from the first document. This is the catch-up scan
// behind cursor pagination: the anchor is an _id, not an offset, so
// the resume point is unaffected by inserts and deletes elsewhere in
// the collection, by snapshot/restore (which preserves insertion
// order), and by which WAL record a batch insert shared — every
// document has its own id regardless of how it was grouped for
// logging.
//
// A deleted anchor falls back to its id ordinal when the id was
// auto-assigned: the scan resumes at the first auto-assigned id minted
// after the anchor, which is the anchor's old neighborhood in
// insertion order. Anchors that are neither present nor auto-assigned
// fail with ErrCursorGone.
func (c *Collection) FindAfterContext(ctx context.Context, afterID string, filter Doc, limit int) ([]Doc, error) {
	rows, err := c.FindRowsAfterContext(ctx, afterID, filter, limit)
	if err != nil {
		return nil, err
	}
	return rowDocs(ctx, rows, nil)
}

// FindRowsAfterContext is FindAfterContext returning rows (see Row)
// instead of copies.
func (c *Collection) FindRowsAfterContext(ctx context.Context, afterID string, filter Doc, limit int) ([]Row, error) {
	return c.findRows(ctx, afterID, filter, FindOptions{Limit: limit})
}

// resumeSeqLocked resolves a cursor anchor to the seq its page starts
// at: 0 for no anchor, the slot after a live anchor, and for a deleted
// auto-id anchor the first live auto-assigned id minted after it —
// the one case that still scans order, since ordinals are a property
// of the id strings, not of seq. Caller holds at least a read lock.
func (c *Collection) resumeSeqLocked(ctx context.Context, afterID string) (uint64, error) {
	if afterID == "" {
		return 0, nil
	}
	if e, ok := c.docs[afterID]; ok {
		return e.seq + 1, nil
	}
	ord, ok := parseAutoID(afterID)
	if !ok {
		return 0, fmt.Errorf("resume after %q: %w", afterID, ErrCursorGone)
	}
	for i, e := range c.order {
		if i&(scanCtxCheckEvery-1) == scanCtxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if !e.live() {
			continue
		}
		if o, auto := parseAutoID(e.id()); auto && o > ord {
			return e.seq, nil
		}
	}
	return c.nextSeq, nil
}
