package goflow

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// storedForm is what reads of a collection see: each document's
// fields, as Row.Value gives them, and its JSON, as Row.AppendJSON
// writes it, in insertion order.
type storedForm struct {
	values []map[string]any
	json   [][]byte
}

func readStoredForm(t *testing.T, rows []docstore.Row) storedForm {
	t.Helper()
	var f storedForm
	for _, r := range rows {
		vals := map[string]any{}
		for _, name := range r.Names() {
			vals[name] = r.Value(name)
		}
		raw, err := r.AppendJSON(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.values, f.json = append(f.values, vals), append(f.json, raw)
	}
	return f
}

func storedFormOf(t *testing.T, e storage.Engine) storedForm {
	t.Helper()
	rows, err := e.FindRows(context.Background(), ObservationsCollection, nil, docstore.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return readStoredForm(t, rows)
}

// TestOneStoredFormAcrossRestarts: an observation reads the same —
// every field's value, times included, and its JSON byte for byte —
// inserted live through ingestBatch, recovered from its WAL record,
// restored from a checkpoint, and applied on a follower. The times
// handed to the live insert carry a monotonic reading, the machine's
// zone or a named one: at rest a time is its instant and zone offset,
// so each reads back as UTC or as an unnamed zone of its offset, as
// the document codec has always decoded it.
func TestOneStoredFormAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	opts := storage.LocalOptions{WALDir: dir, Policy: wal.FsyncNone}
	l, err := storage.OpenLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	dm := NewDataManagerEngine(l, newAccounts(t), geo.ParisZones())
	now := time.Now() // monotonic, in time.Local
	cest := time.FixedZone("CEST", 2*3600)
	sensed := []time.Time{
		now,
		now.Add(-time.Hour).In(cest),
		time.Date(2016, 2, 1, 10, 0, 0, 123456789, time.FixedZone("", -5*3600-30*60)),
		time.Date(2016, 2, 1, 10, 0, 0, 0, time.UTC),
	}
	obs := make([]*sensing.Observation, len(sensed))
	received := make([]time.Time, len(sensed))
	for i, at := range sensed {
		obs[i] = obsAt(t, "LGE NEXUS 5", 50+float64(i), i%2 == 0, at)
		received[i] = now.Add(time.Duration(i) * time.Millisecond)
	}
	if _, err := dm.ingestBatch("SC", dm.accounts.Anonymize("client-1"), obs, received); err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Ingest("SC", "client-2", obsAt(t, "M", 61, true, now.In(cest)), now); err != nil {
		t.Fatal(err)
	}
	live := storedFormOf(t, l)

	// A follower applies the leader's records as they are logged.
	if err := l.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	follower := docstore.NewStore()
	type record struct {
		typ     byte
		payload []byte
	}
	if err := wal.Replay(l.WAL(),
		func(_ uint64, typ byte, payload []byte) (record, error) {
			return record{typ, bytes.Clone(payload)}, nil
		},
		func(lsn uint64, r record) error { return follower.ApplyRecord(lsn, r.typ, r.payload) },
	); err != nil {
		t.Fatal(err)
	}
	followed := storedFormOf(t, storage.NewLocal(follower))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *storage.Local {
		t.Helper()
		l, err := storage.OpenLocal(opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l = reopen()
	if records, _ := l.ReplayInfo(); records == 0 {
		t.Fatal("nothing was recovered from the log")
	}
	recovered := storedFormOf(t, l)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = reopen()
	defer l.Close()
	if records, _ := l.ReplayInfo(); records != 0 {
		t.Fatalf("%d records replayed after the checkpoint, want the snapshot alone", records)
	}
	restored := storedFormOf(t, l)

	if len(live.values) != len(sensed)+1 {
		t.Fatalf("%d documents stored, want %d", len(live.values), len(sensed)+1)
	}
	for name, got := range map[string]storedForm{"recovered": recovered, "restored": restored, "followed": followed} {
		if len(got.values) != len(live.values) {
			t.Fatalf("%d documents %s, %d inserted live", len(got.values), name, len(live.values))
		}
		for i := range live.values {
			if !reflect.DeepEqual(got.values[i], live.values[i]) {
				t.Errorf("document %d %s reads %v, inserted live %v", i, name, got.values[i], live.values[i])
			}
			if !bytes.Equal(got.json[i], live.json[i]) {
				t.Errorf("document %d %s writes %s, inserted live %s", i, name, got.json[i], live.json[i])
			}
		}
	}
}
