package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/urbancivics/goflow/internal/faults"
)

// replayAll collects every record in the log.
func replayAll(t *testing.T, w *WAL) []Record {
	t.Helper()
	var out []Record
	err := Replay(w, func(lsn uint64, typ byte, payload []byte) (Record, error) {
		return Record{LSN: lsn, Type: typ, Payload: append([]byte(nil), payload...)}, nil
	}, func(_ uint64, r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// skipRecord is a Replay decode stage that keeps nothing of a record.
func skipRecord(uint64, byte, []byte) (struct{}, error) { return struct{}{}, nil }

func TestFsyncPolicyRoundtrip(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncGrouped, FsyncAlways, FsyncNone} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy(sometimes) succeeded, want error")
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("hello"), nil, []byte{0, 1, 2, 255}}
	for i, p := range payloads {
		buf = AppendRecord(buf, uint64(i+1), byte(i), p)
	}
	off := 0
	for i, p := range payloads {
		rec, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.LSN != uint64(i+1) || rec.Type != byte(i) || string(rec.Payload) != string(p) {
			t.Fatalf("record %d = %+v, want lsn=%d type=%d payload=%q", i, rec, i+1, i, p)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestRecordCodecErrors(t *testing.T) {
	frame := AppendRecord(nil, 7, 3, []byte("payload"))
	if _, _, err := DecodeRecord(frame[:len(frame)-1]); !errors.Is(err, ErrShortRecord) {
		t.Errorf("truncated frame: err = %v, want ErrShortRecord", err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, _, err := DecodeRecord(corrupt); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload byte: err = %v, want ErrCorrupt", err)
	}
	huge := append([]byte(nil), frame...)
	huge[3] = 0xff // length field -> ~4 GiB
	if _, _, err := DecodeRecord(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		lsn, err := w.log(byte(i%7), []byte(fmt.Sprintf("record %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got lsn %d", i, lsn)
		}
	}
	if got := w.DurableLSN(); got != n {
		t.Fatalf("DurableLSN = %d, want %d", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := replayAll(t, w2)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := fmt.Sprintf("record %d", i)
		if r.LSN != uint64(i+1) || r.Type != byte(i%7) || string(r.Payload) != want {
			t.Fatalf("record %d = %+v, want lsn=%d type=%d payload=%q", i, r, i+1, i%7, want)
		}
	}
	// Appends continue the LSN sequence where the previous process
	// stopped.
	lsn, err := w2.log(0, []byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, n+1)
	}
}

func TestConcurrentAppendContiguity(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := w.log(1, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.LastLSN(); got != goroutines*each {
		t.Fatalf("LastLSN = %d, want %d", got, goroutines*each)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := replayAll(t, w2)
	if len(recs) != goroutines*each {
		t.Fatalf("replayed %d, want %d", len(recs), goroutines*each)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256, Policy: FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.log(0, []byte(fmt.Sprintf("rotating record %02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want several after %d records with 256-byte segments", st.Segments, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if recs := replayAll(t, w2); len(recs) != n {
		t.Fatalf("replayed %d across segments, want %d", len(recs), n)
	}
}

func TestCheckpointTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.log(0, []byte("before checkpoint")); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 21 {
		t.Fatalf("Rotate cut = %d, want 21", cut)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.log(0, []byte("after checkpoint")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := w.TruncateBefore(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("TruncateBefore removed %d segments, want 1", removed)
	}
	recs := replayAll(t, w)
	if len(recs) != 5 {
		t.Fatalf("replayed %d post-checkpoint records, want 5", len(recs))
	}
	if recs[0].LSN != cut {
		t.Fatalf("first surviving lsn = %d, want %d", recs[0].LSN, cut)
	}
	// An empty active segment is not sealed: rotating twice in a row
	// must not leave zero-record segments behind.
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	before := w.Stats().Segments
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if after := w.Stats().Segments; after != before {
		t.Fatalf("empty rotate grew segments %d -> %d", before, after)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.log(0, []byte(fmt.Sprintf("record %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: append half of an eleventh record by hand.
	torn := AppendRecord(nil, 11, 0, []byte("never fully written"))
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w2.Close()
	recs := replayAll(t, w2)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want the 10 intact ones", len(recs))
	}
	// The torn record's LSN is reused by the next append — the torn
	// record was never acknowledged, so it never existed.
	lsn, err := w2.log(0, []byte("record 11 again"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("lsn after torn-tail truncation = %d, want 11", lsn)
	}
}

func TestSealedCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128, Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.log(0, []byte(fmt.Sprintf("record %02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the first (sealed)
	// segment — damage outside the crash model.
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	err = Replay(w2, skipRecord, func(uint64, struct{}) error { return nil })
	if err == nil {
		t.Fatal("replay over corrupt sealed segment succeeded, want hard error")
	}
}

func TestErrClosed(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(0, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestStickyFailureAfterTear(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{
		Policy:      FsyncAlways,
		WrapSegment: func(f io.Writer) io.Writer { return faults.NewWriter(f, 3*100) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var firstErr error
	for i := 0; i < 50; i++ {
		if _, err := w.log(0, make([]byte, 83)); err != nil { // 100-byte frames
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("no append failed despite 300-byte budget")
	}
	if !errors.Is(firstErr, faults.ErrInjected) {
		t.Fatalf("failure = %v, want wrapped ErrInjected", firstErr)
	}
	// Failed closed: every later append reports the same sticky error
	// without touching the torn segment.
	if _, err := w.Append(0, []byte("after tear")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append after tear = %v, want sticky ErrInjected", err)
	}
}

// log appends one record and waits for its commit.
func (w *WAL) log(typ byte, payload []byte) (uint64, error) {
	t, err := w.Append(typ, payload)
	if err != nil {
		return 0, err
	}
	return t.lsn, t.Wait()
}
