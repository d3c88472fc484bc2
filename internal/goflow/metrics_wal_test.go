package goflow

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// TestMetricsWALExposition attaches a WAL to an instrumented server,
// pushes mutations and a checkpoint through it, and checks that the
// wal_* families show up in the /metrics exposition with live values.
func TestMetricsWALExposition(t *testing.T) {
	broker := mq.NewBroker()
	store := docstore.NewStore()
	w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := docstore.RecoverWAL(store, w); err != nil {
		t.Fatal(err)
	}
	docstore.AttachWAL(store, w)
	server, err := NewServer(ServerConfig{Broker: broker, Data: storage.NewLocal(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Shutdown()
		broker.Close()
		w.Close()
	})
	reg := obs.NewRegistry()
	m := Instrument(reg, server, store)
	m.InstrumentWAL(w)
	handler := NewInstrumentedHTTPHandler(server, reg)

	obsCol := store.Collection("observations")
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := obsCol.Insert(docstore.Doc{"db": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := obsCol.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	// A checkpoint exercises the rotation and truncation families.
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	body := rr.Body.String()
	// Counts are not pinned exactly: the server itself journals its
	// collection setup (ensure-index records), so the test asserts the
	// families exist and the checkpoint-driven ones have their known
	// values.
	for _, want := range []string{
		"wal_records_total 2",
		"wal_fsyncs_total",
		"wal_fsync_duration_seconds_count",
		"wal_commit_batch_records_sum",
		"wal_rotations_total 1",
		"wal_truncated_segments_total 1",
		"wal_segments 1",
		"wal_last_lsn 2",
		"wal_durable_lsn 2",
		"wal_replayed_records 0",
		"wal_bytes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "wal_") {
				t.Logf("%s", line)
			}
		}
	}
}
