package wal

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestReadFromRanges covers the record-streaming primitive of
// log-shipping replication: arbitrary starting LSNs, record and byte
// limits, and reads spanning sealed segments plus the active one.
func TestReadFromRanges(t *testing.T) {
	dir := t.TempDir()
	// ~120-byte frames against a 1 KiB segment budget, so the log
	// rotates several times and ReadFrom has to cross segments.
	w, err := Open(dir, Options{Policy: FsyncGrouped, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.log(byte(i%5), []byte(fmt.Sprintf("record %03d padpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpadpad", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Segments; got < 3 {
		t.Fatalf("want several segments, got %d", got)
	}

	for _, from := range []uint64{1, 2, 17, n, n + 1} {
		recs, err := w.ReadFrom(from, 0, 0)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", from, err)
		}
		want := 0
		if from <= n {
			want = int(n - from + 1)
		}
		if len(recs) != want {
			t.Fatalf("ReadFrom(%d) returned %d records, want %d", from, len(recs), want)
		}
		for i, r := range recs {
			if r.LSN != from+uint64(i) {
				t.Fatalf("ReadFrom(%d) record %d has lsn %d", from, i, r.LSN)
			}
		}
	}

	// Record limit caps the batch; the next call resumes seamlessly.
	first, err := w.ReadFrom(1, 7, 0)
	if err != nil || len(first) != 7 {
		t.Fatalf("ReadFrom(1, 7) = %d records, %v", len(first), err)
	}
	rest, err := w.ReadFrom(first[len(first)-1].LSN+1, 0, 0)
	if err != nil || len(rest) != n-7 {
		t.Fatalf("resume = %d records, %v; want %d", len(rest), err, n-7)
	}

	// Byte limit stops after the record whose payload crosses it:
	// ~68-byte payloads against a 150-byte budget yield three records.
	limited, err := w.ReadFrom(1, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 {
		t.Fatalf("byte-limited read returned %d records, want 3", len(limited))
	}
}

// TestReadFromStopsAtDurable proves the log never ships a record it
// has not fsynced: under FsyncNone nothing is ever durable, so nothing
// ships.
func TestReadFromStopsAtDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append(0, []byte("unacked")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := w.ReadFrom(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("ReadFrom shipped %d non-durable records", len(recs))
	}
}

// TestReadFromTruncated: a checkpoint that deleted the requested
// history is a typed error directing the reader to a snapshot.
func TestReadFromTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncGrouped, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 30; i++ {
		if _, err := w.log(0, []byte("record that fills segments quickly......")); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadFrom(1, 0, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(1) after truncation = %v, want ErrTruncated", err)
	}
}

// TestDurableNotify: the broadcast channel wakes a tailing reader when
// the durable LSN advances past its target.
func TestDurableNotify(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.log(0, []byte("one")); err != nil {
		t.Fatal(err)
	}

	ch := w.DurableNotify()
	woke := make(chan uint64, 1)
	go func() {
		<-ch
		woke <- w.DurableLSN()
	}()
	if _, err := w.log(0, []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case lsn := <-woke:
		if lsn < 2 {
			t.Fatalf("woke at durable lsn %d, want >= 2", lsn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DurableNotify never fired")
	}
}

// TestCorruptionErrorLocalizes: Replay on a damaged sealed segment
// reports the segment file, byte offset and last intact LSN — the
// debugging handle multi-shard recovery needs.
func TestCorruptionErrorLocalizes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncGrouped, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1 seals a segment per flush, so LSN 1 lands in a
	// sealed segment we can damage.
	for i := 0; i < 3; i++ {
		if _, err := w.log(0, []byte(fmt.Sprintf("record %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sealed := segmentName(1)
	path := dir + "/" + sealed
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // damage the payload tail of LSN 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	err = Replay(w2, skipRecord, func(uint64, struct{}) error { return nil })
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("replay over damaged sealed segment = %v, want *CorruptionError", err)
	}
	if ce.Segment != path {
		t.Errorf("CorruptionError.Segment = %q, want %q", ce.Segment, path)
	}
	if ce.Offset != 0 {
		t.Errorf("CorruptionError.Offset = %d, want 0 (first frame)", ce.Offset)
	}
	if ce.LastLSN != 0 {
		t.Errorf("CorruptionError.LastLSN = %d, want 0", ce.LastLSN)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("CorruptionError does not unwrap to ErrCorrupt: %v", err)
	}
}
