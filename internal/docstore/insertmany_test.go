package docstore

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/urbancivics/goflow/internal/obs"
)

// countingCommitLog records every Log call so tests can assert which
// mutations actually reached the commit log.
type countingCommitLog struct {
	logs atomic.Int64
	ops  []MutationOp
}

type nopTicket struct{}

func (nopTicket) Wait() error { return nil }

func (l *countingCommitLog) Log(m *Mutation) (CommitTicket, error) {
	l.logs.Add(1)
	l.ops = append(l.ops, m.Op)
	return nopTicket{}, nil
}

// TestInsertManyEmptyShortCircuits: an empty (or nil) batch must not
// emit a WAL record, time an insert, or touch indexes — a noisy client
// flushing an empty buffer should cost the store nothing.
func TestInsertManyEmptyShortCircuits(t *testing.T) {
	s := NewStore()
	cl := &countingCommitLog{}
	s.SetCommitLog(cl)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	c := s.Collection("obs")
	c.EnsureIndex("zone")
	base := cl.logs.Load() // EnsureIndex itself logs one record

	for name, docs := range map[string][]Doc{"nil": nil, "empty": {}} {
		ids, err := c.InsertMany(docs)
		if err != nil {
			t.Fatalf("InsertMany(%s) = %v", name, err)
		}
		if ids != nil {
			t.Fatalf("InsertMany(%s) returned ids %v, want nil", name, ids)
		}
	}
	if got := cl.logs.Load() - base; got != 0 {
		t.Fatalf("empty InsertMany emitted %d commit-log records, want 0", got)
	}
	if got := reg.HistogramVec("docstore_op_duration_seconds", "", nil, "collection", "op").With("obs", "insert").Count(); got != 0 {
		t.Fatalf("empty InsertMany timed %d inserts, want 0", got)
	}
	if st := c.Stats(); st.Inserted != 0 || st.Docs != 0 {
		t.Fatalf("empty InsertMany mutated the collection: %+v", st)
	}
}

// TestInsertManyRejectedPrefixNoRecord: when validation rejects the
// batch at the first document (n = 0), nothing may reach the log.
func TestInsertManyRejectedPrefixNoRecord(t *testing.T) {
	s := NewStore()
	c := s.Collection("obs")
	if _, err := c.Insert(Doc{IDField: "dup"}); err != nil {
		t.Fatal(err)
	}
	cl := &countingCommitLog{}
	s.SetCommitLog(cl)
	ids, err := c.InsertMany([]Doc{{IDField: "dup"}, {IDField: "never"}})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("InsertMany with duplicate head = %v, want ErrDuplicateID", err)
	}
	if len(ids) != 0 {
		t.Fatalf("rejected batch stored ids %v", ids)
	}
	if got := cl.logs.Load(); got != 0 {
		t.Fatalf("rejected batch emitted %d commit-log records, want 0", got)
	}
}
