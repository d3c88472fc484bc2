// Package storage defines the pluggable storage-engine seam of the
// GoFlow middleware. The paper's backend swapped persistence concerns
// onto a MongoDB replica set; this reproduction keeps storage
// in-process but hides it behind the Engine interface, so the layers
// above (the data manager, the REST API, the background jobs) cannot
// tell a single local store from a sharded, replicated cluster. The
// single-node engine is Local (a docstore.Store plus optional WAL and
// snapshot checkpointing); internal/cluster builds the sharded,
// replicated engines on top of the same interface.
package storage

import (
	"context"

	"github.com/urbancivics/goflow/internal/docstore"
)

// Doc is a JSON-like document, identical to docstore.Doc.
type Doc = docstore.Doc

// Engine is a document storage engine: named collections of documents
// with filtered scans, secondary equality indexes, durability
// checkpoints and a close lifecycle. All methods must be safe for
// concurrent use.
//
// Semantics follow docstore exactly — Local is a thin veneer over a
// docstore.Store, and every other engine is defined by being
// indistinguishable from it through this interface (the conformance
// suite in engine_test.go pins that down): duplicate ids fail with
// docstore.ErrDuplicateID, missing ids with docstore.ErrNotFound,
// InsertMany takes ownership of its documents and stores the valid
// prefix on error, and context cancellation aborts scans.
type Engine interface {
	// Insert stores a copy of doc in the named collection, minting an
	// id when absent, and returns the id.
	Insert(col string, doc Doc) (string, error)
	// InsertMany inserts docs in order through one batch operation,
	// taking ownership of the documents (callers must not retain or
	// mutate them). On error the valid prefix is stored and its ids
	// returned.
	InsertMany(col string, docs []Doc) ([]string, error)
	// Get returns a copy of the document with the given id.
	Get(col, id string) (Doc, error)
	// Update shallow-merges fields into an existing document.
	Update(col, id string, fields Doc) error
	// Unset removes fields from an existing document.
	Unset(col, id string, fields ...string) error
	// Delete removes the document with the given id.
	Delete(col, id string) error
	// DeleteMany removes every document matching filter and returns
	// how many were removed.
	DeleteMany(col string, filter Doc) (int, error)
	// FindContext returns copies of the documents matching filter,
	// shaped by opts, aborting with ctx.Err() past the deadline.
	FindContext(ctx context.Context, col string, filter Doc, opts docstore.FindOptions) ([]Doc, error)
	// FindRows is FindContext without the copies: the same documents in
	// the same order as read-only views of the stored ones (see
	// docstore.Row), whole whatever opts.Projection says.
	FindRows(ctx context.Context, col string, filter Doc, opts docstore.FindOptions) ([]docstore.Row, error)
	// CountContext returns the number of documents matching filter.
	CountContext(ctx context.Context, col string, filter Doc) (int, error)
	// EnsureIndex creates an equality index on field (idempotent).
	EnsureIndex(col, field string)
	// Collections lists collection names sorted.
	Collections() []string
	// Stats snapshots one collection's counters.
	Stats(col string) docstore.Stats
	// Checkpoint makes the engine's current state durable and bounds
	// its recovery log: for Local, rotate the WAL, publish a snapshot
	// and truncate the covered segments. Engines without persistence
	// configured return nil.
	Checkpoint() error
	// Close flushes and releases the engine's resources. The engine
	// must not be used afterwards.
	Close() error
}
