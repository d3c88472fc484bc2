package storage

import (
	"context"

	"github.com/urbancivics/goflow/internal/docstore"
)

// CursorScanner is the optional pagination surface a storage engine
// exposes when it can resume a scan from an _id anchor. Callers
// discover it by type assertion on the Engine, like SeriesQuerier:
// the Local engine supports it (the docstore scan order is its
// insertion order), while the cluster Router does not — shards scan
// independently, so a single anchor does not name a global position —
// and the HTTP layer answers 501 for cursor reads on a router.
type CursorScanner interface {
	// ScanAfter returns up to limit documents matching filter that sit
	// strictly after the document afterID in scan order. An empty
	// afterID starts from the beginning. A vanished, unrecoverable
	// anchor fails with docstore.ErrCursorGone.
	ScanAfter(ctx context.Context, col, afterID string, filter Doc, limit int) ([]Doc, error)
	// ScanRowsAfter is ScanAfter without the copies (see
	// Engine.FindRows).
	ScanRowsAfter(ctx context.Context, col, afterID string, filter Doc, limit int) ([]docstore.Row, error)
}

// ScanAfter implements CursorScanner.
func (l *Local) ScanAfter(ctx context.Context, col, afterID string, filter Doc, limit int) ([]Doc, error) {
	return l.store.Collection(col).FindAfterContext(ctx, afterID, filter, limit)
}

// ScanRowsAfter implements CursorScanner.
func (l *Local) ScanRowsAfter(ctx context.Context, col, afterID string, filter Doc, limit int) ([]docstore.Row, error) {
	return l.store.Collection(col).FindRowsAfterContext(ctx, afterID, filter, limit)
}

var _ CursorScanner = (*Local)(nil)
