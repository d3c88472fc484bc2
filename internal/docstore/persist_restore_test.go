package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// TestSnapshotRestoreAfterDeletes is the regression guard for the
// snapshot order/counter path: after a mix of inserts, deletes (enough
// to trigger the lazy order compaction) and re-inserts, a restored
// store must be indistinguishable from the live one — same insertion
// order, same secondary-index results, same lifetime counters.
func TestSnapshotRestoreAfterDeletes(t *testing.T) {
	live := NewStore()
	obs := live.Collection("observations")
	obs.EnsureIndex("place")
	var ids []string
	for i := 0; i < 40; i++ {
		id, err := obs.Insert(Doc{"db": i, "place": fmt.Sprintf("p%d", i%4)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete more than half so the tombstoned order slice compacts,
	// then keep writing: the order the snapshot must preserve is now
	// neither contiguous nor aligned with insertion ids.
	for i := 0; i < 25; i++ {
		if err := obs.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := obs.Insert(Doc{"db": 100 + i, "place": "p9"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := obs.Update(ids[30], Doc{"db": 999}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	robs := restored.Collection("observations")

	liveDocs, err := obs.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restoredDocs, err := robs.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restoredDocs, liveDocs) {
		t.Fatalf("restored docs (insertion order):\n%v\nwant\n%v", restoredDocs, liveDocs)
	}

	ls, rs := obs.Stats(), robs.Stats()
	if rs.Inserted != ls.Inserted {
		t.Fatalf("restored Inserted = %d, want %d (counter lost through snapshot)", rs.Inserted, ls.Inserted)
	}
	if rs.Updated != ls.Updated {
		t.Fatalf("restored Updated = %d, want %d", rs.Updated, ls.Updated)
	}
	if rs.Docs != ls.Docs {
		t.Fatalf("restored Docs = %d, want %d", rs.Docs, ls.Docs)
	}

	// Secondary indexes answer identically, including for the bucket
	// that lost most of its members to deletes.
	for _, place := range []string{"p0", "p1", "p9", "missing"} {
		lr, err := obs.Find(Doc{"place": place}, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := robs.Find(Doc{"place": place}, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr, lr) {
			t.Fatalf("indexed find %q after restore:\n%v\nwant\n%v", place, rr, lr)
		}
	}

	// The restored store keeps behaving like the live one going
	// forward: new inserts land at the end of the same order.
	for _, s := range []*Store{live, restored} {
		if _, err := s.Collection("observations").Insert(Doc{"db": 7777, "place": "p0"}); err != nil {
			t.Fatal(err)
		}
	}
	liveDocs, err = obs.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restoredDocs, err = robs.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restoredDocs[len(restoredDocs)-1]["db"], liveDocs[len(liveDocs)-1]["db"]; got != want {
		t.Fatalf("post-restore insert landed with db=%v at the tail, want %v", got, want)
	}
	if len(restoredDocs) != len(liveDocs) {
		t.Fatalf("post-restore doc count %d, want %d", len(restoredDocs), len(liveDocs))
	}

	// ...and the restored index keeps absorbing those mutations: the
	// post-restore insert must be visible through an indexed find, and
	// a post-restore delete must drop back out of it. (Regression: a
	// restored index once lived only in the lookup map, not the
	// mutation path's index list, so every doc inserted after a
	// snapshot load was invisible to indexed queries — recovered WAL
	// replays included.)
	for _, c := range []*Collection{obs, robs} {
		got, err := c.Find(Doc{"db": 7777, "place": "p0"}, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("%s: indexed find of post-restore insert returned %d docs, want 1", c.name, len(got))
		}
		if err := c.Delete(got[0][IDField].(string)); err != nil {
			t.Fatal(err)
		}
		got, err = c.Find(Doc{"db": 7777, "place": "p0"}, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: deleted post-restore doc still visible through index (%d docs)", c.name, len(got))
		}
	}
}

// resealSnapshot returns b with the checksums of its header and of
// every whole collection block recomputed, so that the fuzzer's
// mutations reach the block decoder instead of stopping at a CRC.
func resealSnapshot(b []byte) []byte {
	b = bytes.Clone(b)
	if len(b) < snapshotHeaderSize || string(b[:len(snapshotMagic)]) != snapshotMagic {
		return b
	}
	sum := snapshotHeaderSize - 4
	binary.LittleEndian.PutUint32(b[sum:], crc32.Checksum(b[:sum], castagnoli))
	for off := snapshotHeaderSize; off+snapshotFrameSize <= len(b); {
		size := binary.LittleEndian.Uint64(b[off:])
		body := off + snapshotFrameSize
		if size > uint64(len(b)-body) {
			break
		}
		end := body + int(size)
		binary.LittleEndian.PutUint32(b[off+8:], crc32.Checksum(b[body:end], castagnoli))
		off = end
	}
	return b
}

// snapshotBlocks returns the collection block bodies of a snapshot
// Restore accepted.
func snapshotBlocks(b []byte) [][]byte {
	var blocks [][]byte
	for off := snapshotHeaderSize; off < len(b); {
		size := int(binary.LittleEndian.Uint64(b[off:]))
		body := off + snapshotFrameSize
		blocks = append(blocks, b[body:body+size])
		off = body + size
	}
	return blocks
}

// FuzzSnapshotRestore: Store.Restore never panics on arbitrary bytes,
// as they come and with their checksums made right; each collection
// block of a snapshot it accepts decodes and encodes to the same bytes,
// and the snapshot re-saves to bytes that restore and save to the same
// bytes again.
func FuzzSnapshotRestore(f *testing.F) {
	s := NewStore()
	c := s.Collection("c")
	c.EnsureIndex("zone")
	if _, err := c.Insert(kindsDoc()); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Collection("other").InsertMany([]Doc{{"zone": "z", "spl": 61.5}, {"zone": "y"}}); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Collection("split").InsertMany(kindSplitDocs()); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	empty := bytes.Buffer{}
	if err := NewStore().Snapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	if gob, err := os.ReadFile("testdata/legacy-gob/data/snapshot.gob"); err == nil {
		f.Add(gob)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < len(snapshotMagic) || string(in[:len(snapshotMagic)]) != snapshotMagic {
			return // a legacy gob snapshot: gob's decoder is the standard library's to fuzz
		}
		for _, b := range [][]byte{in, resealSnapshot(in)} {
			s := NewStore()
			if err := s.Restore(bytes.NewReader(b)); err != nil {
				continue
			}
			// Each collection block decodes and encodes to its own bytes.
			for _, body := range snapshotBlocks(b) {
				c, err := s.decodeSnapshot(body)
				if err != nil {
					t.Fatalf("a block of an accepted snapshot does not decode: %v", err)
				}
				e := getEncoder()
				if err := c.encodeSnapshot(e); err != nil {
					t.Fatalf("a restored block does not encode: %v", err)
				}
				if !bytes.Equal(e.buf, body) {
					t.Fatalf("block not canonical:\n in  %x\n out %x", body, e.buf)
				}
				e.release()
			}
			var saved bytes.Buffer
			if err := s.Snapshot(&saved); err != nil {
				t.Fatalf("an accepted snapshot does not save: %v", err)
			}
			again := NewStore()
			if err := again.Restore(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatalf("a saved snapshot does not restore: %v", err)
			}
			var resaved bytes.Buffer
			if err := again.Snapshot(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
				t.Fatalf("not a fixed point:\n saved   %x\n resaved %x", saved.Bytes(), resaved.Bytes())
			}
		}
	})
}
