package mq

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

func TestReplFrameRoundTrip(t *testing.T) {
	frames := []*ReplFrame{
		{Op: ReplOpHello, Shard: 3},
		{Op: ReplOpHello, Shard: 3, LeaderLSN: 812},
		{Op: ReplOpFetch, From: 101, AppliedLSN: 100, MaxRecords: 512, MaxBytes: 1 << 20},
		{Op: ReplOpBatch, LeaderLSN: 205, Records: []ReplRecord{
			{LSN: 101, Type: 1, Payload: []byte("alpha")},
			{LSN: 102, Type: 2, Payload: []byte{0x00, 0xff, 0x10}},
		}},
		{Op: ReplOpBatch, LeaderLSN: 205}, // caught up: empty batch
		{Op: ReplOpError, Error: "wal: requested lsn precedes retained log"},
	}
	var buf bytes.Buffer
	var written int
	for _, f := range frames {
		n, err := WriteReplFrame(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		written += n
	}
	r := bufio.NewReader(&buf)
	var read int
	for i, want := range frames {
		got, n, err := ReadReplFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		read += n
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if written != read {
		t.Fatalf("wrote %d bytes but read %d", written, read)
	}
}

// TestReplFrameInterleaved: replication frames and broker frames share
// the codec, so a decoding error in one must not be possible from
// well-formed frames of the other protocol on its own connection.
func TestReplFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	if _, _, err := ReadReplFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame not rejected")
	}
}

// FuzzReadReplFrame throws arbitrary bytes at the replication frame
// reader — the first thing every node session, vote and ping runs on
// bytes from a peer. The reader must never panic or claim more bytes
// than it was given, and a frame it accepts must be a fixed point of
// the codec: re-encoded with WriteReplFrame it reads back, and the
// read-back re-encodes to identical bytes.
func FuzzReadReplFrame(f *testing.F) {
	for _, fr := range []*ReplFrame{
		{Op: ReplOpHello, Follower: "n2"},
		{Op: ReplOpHello, LeaderLSN: 812, Term: 3},
		{Op: ReplOpFetch, From: 101, AppliedLSN: 100, Term: 3, MaxRecords: 512, MaxBytes: 1 << 20},
		{Op: ReplOpBatch, LeaderLSN: 205, Term: 3, Records: []ReplRecord{
			{LSN: 101, Type: 1, Payload: []byte("alpha")},
			{LSN: 102, Type: 2, Payload: []byte{0x00, 0xff, 0x10}},
		}},
		{Op: ReplOpError, Code: ReplErrTruncated, Error: "wal: requested lsn precedes retained log", SnapLSN: 90},
		{Op: ReplOpVote, Term: 4, Candidate: "n1", LastLSN: 205, Forced: true},
		{Op: ReplOpVote, Term: 4, Candidate: "n1", LastLSN: 205, PreVote: true},
		{Op: ReplOpPing, Term: 4, LeaderName: "n1", LeaderAddr: "127.0.0.1:7700"},
		{Op: ReplOpSnap, Follower: "n3", Offset: 4096, Term: 4},
		{Op: ReplOpSnapChunk, Offset: 4096, Data: []byte("chunk"), CRC: 0xdeadbeef, SnapLSN: 90, SnapSize: 8192},
	} {
		var buf bytes.Buffer
		if _, err := WriteReplFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 'n', 'u', 'l', 'l'})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := ReadReplFrame(bufio.NewReader(bytes.NewReader(data)))
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if err != nil {
			return
		}
		var once bytes.Buffer
		if _, err := WriteReplFrame(&once, frame); err != nil {
			t.Fatalf("re-encode %+v: %v", frame, err)
		}
		back, m, err := ReadReplFrame(bufio.NewReader(bytes.NewReader(once.Bytes())))
		if err != nil || m != once.Len() {
			t.Fatalf("re-encoded frame read back %d of %d bytes: %v", m, once.Len(), err)
		}
		var twice bytes.Buffer
		if _, err := WriteReplFrame(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("codec has no fixed point:\n once %q\ntwice %q", once.Bytes(), twice.Bytes())
		}
	})
}
