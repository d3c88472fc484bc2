package docstore

// Ingest-observer seam: the derived-view counterpart of the commit
// log. A derived store (the series engine's continuous aggregates)
// registers an observer on a collection and receives every insert —
// live, replayed from the WAL, or replicated — together with the WAL
// LSN of the mutation that carried it.
//
// Ordering contract: for live inserts the observer fires inside the
// collection's write critical section, immediately after the mutation
// is applied — the same critical section that assigned the commit-log
// LSN — so observers see documents in exactly the LSN order the WAL
// records them. That is what lets a derived view checkpoint a single
// high-water LSN and have replay re-feed precisely the records the
// checkpoint missed (see series.DB.AppendBatch). The observer is handed
// a Batch, a read-only view of the documents in their stored form, not
// maps and not copies — replay builds no map just to show a derived
// view three fields — and the view is valid only during the call: an
// observer reads the fields it needs and retains neither the Batch nor
// a map or slice it got out of one.
//
// Granularity contract: the observer fires exactly once per mutation
// — one document for Insert, the whole accepted prefix for InsertMany
// — never once per document. A multi-document WAL record carries a
// single LSN, so the batch is the unit of idempotence: a derived view
// must apply (or skip, on replay) all documents of a call together,
// atomically with respect to its own watermark/checkpoint, or replay
// after a checkpoint that split a batch would lose the remainder.
//
// Observers see inserts only. Updates, deletes and drops do not fire
// — the series view aggregates immutable observations, and its
// retention model (raw chunks age out, anonymous rollups persist) is
// deliberately insensitive to document-level erasure. Callers that
// need erasure to propagate into derived views must rebuild them.

// IngestObserver receives the documents of one insert mutation and
// the LSN of the commit-log record that carried them (0 when no
// commit log is attached, or on backfill scans). All documents of a
// call share that LSN; see the granularity contract above.
type IngestObserver func(lsn uint64, docs Batch)

// Batch is the documents of one insert mutation as an IngestObserver
// sees them.
type Batch struct{ docs []packed }

// Len is the number of documents.
func (b Batch) Len() int { return len(b.docs) }

// Row returns document i as a Row, whose typed getters (Fields) read
// its fields as it keeps them. It is valid only during the observer's
// call, like the Batch.
func (b Batch) Row(i int) Row { return Row{b.docs[i]} }

// ingestObsBox wraps the observer map for atomic.Pointer storage.
type ingestObsBox struct{ byCol map[string]IngestObserver }

// SetIngestObserver registers fn for every insert into the named
// collection (nil removes it). Register before serving writes;
// inserts already applied are not replayed into the observer (the
// storage layer's backfill path covers pre-existing documents).
func (s *Store) SetIngestObserver(col string, fn IngestObserver) {
	for {
		old := s.ingestObs.Load()
		byCol := make(map[string]IngestObserver)
		if old != nil {
			for k, v := range old.byCol {
				byCol[k] = v
			}
		}
		if fn == nil {
			delete(byCol, col)
		} else {
			byCol[col] = fn
		}
		var next *ingestObsBox
		if len(byCol) > 0 {
			next = &ingestObsBox{byCol: byCol}
		}
		if s.ingestObs.CompareAndSwap(old, next) {
			return
		}
	}
}

// obsFn returns the collection's ingest observer (nil when none).
func (c *Collection) obsFn() IngestObserver {
	box := c.ingestObs.Load()
	if box == nil {
		return nil
	}
	return box.byCol[c.name]
}

// ticketLSN extracts the WAL LSN a commit ticket carries (0 when the
// ticket kind has none — e.g. no commit log attached). wal.Ticket and
// the cluster replication ticket both implement LSN().
func ticketLSN(tk CommitTicket) uint64 {
	if l, ok := tk.(interface{ LSN() uint64 }); ok {
		return l.LSN()
	}
	return 0
}
