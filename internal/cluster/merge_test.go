package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/storage"
)

// reference is the previous Router merge: concatenate the shard runs
// in shard order, then stable-sort. mergeSortedRuns must reproduce
// its output byte for byte, ties included.
func referenceMerge(partials [][]storage.Doc, field string, desc bool) []storage.Doc {
	var all []storage.Doc
	for _, p := range partials {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		c := docstore.CompareValues(all[i][field], all[j][field])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return all
}

func genRuns(rng *rand.Rand, shards, maxLen, keySpace int, desc bool) [][]storage.Doc {
	runs := make([][]storage.Doc, shards)
	for s := range runs {
		n := rng.Intn(maxLen + 1)
		docs := make([]storage.Doc, n)
		for i := range docs {
			// Small key space forces ties, the case the (shard, pos)
			// tie-break has to get right.
			docs[i] = storage.Doc{"k": rng.Intn(keySpace), "shard": s, "pos": i}
		}
		sort.SliceStable(docs, func(i, j int) bool {
			c := docstore.CompareValues(docs[i]["k"], docs[j]["k"])
			if desc {
				return c > 0
			}
			return c < 0
		})
		for i := range docs {
			docs[i]["pos"] = i // re-stamp positions after the per-shard sort
		}
		runs[s] = docs
	}
	return runs
}

// rowRuns stores every run in a scratch collection of its own and reads
// it back, in the run's order, as the rows the merge takes. The stored
// documents are copies under minted ids; the maps stay the reference's.
func rowRuns(tb testing.TB, runs [][]storage.Doc) [][]docstore.Row {
	tb.Helper()
	out := make([][]docstore.Row, len(runs))
	for s, docs := range runs {
		if docs == nil {
			continue
		}
		col := docstore.NewStore().Collection("run")
		for _, d := range docs {
			if _, err := col.Insert(d); err != nil {
				tb.Fatal(err)
			}
		}
		rows, err := col.FindRowsContext(context.Background(), nil, docstore.FindOptions{})
		if err != nil || len(rows) != len(docs) {
			tb.Fatalf("run %d read back as %d rows of %d: %v", s, len(rows), len(docs), err)
		}
		out[s] = rows
	}
	return out
}

// sansID is a merged row as the document that was stored.
func sansID(r docstore.Row) storage.Doc {
	d := r.Doc(nil)
	delete(d, docstore.IDField)
	return d
}

func TestMergeSortedRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		shards := 1 + rng.Intn(6)
		desc := trial%2 == 1
		runs := genRuns(rng, shards, 40, 5, desc)
		got := mergeSortedRuns(rowRuns(t, runs), "k", desc)
		want := referenceMerge(runs, "k", desc)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(sansID(got[i])) != fmt.Sprint(want[i]) {
				t.Fatalf("trial %d (desc=%v): doc %d:\nwant %v\ngot  %v", trial, desc, i, want[i], sansID(got[i]))
			}
		}
	}
}

func TestMergeSortedRunsEdgeCases(t *testing.T) {
	if got := mergeSortedRuns(nil, "k", false); got != nil {
		t.Fatalf("nil runs: %v", got)
	}
	if got := mergeSortedRuns(rowRuns(t, [][]storage.Doc{{}, {}}), "k", false); got != nil {
		t.Fatalf("empty runs: %v", got)
	}
	single := []storage.Doc{{"k": 1}, {"k": 2}}
	got := mergeSortedRuns(rowRuns(t, [][]storage.Doc{nil, single, nil}), "k", false)
	if len(got) != 2 || got[0].Value("k") != 1 || got[1].Value("k") != 2 {
		t.Fatalf("single non-empty run not passed through: %v", got)
	}
}

// The benchmark pair documents the win over the previous
// concatenate-and-sort: O(n log N) comparisons against O(n log n),
// with N = shard count.
func benchRuns(shards, perShard int) [][]storage.Doc {
	rng := rand.New(rand.NewSource(99))
	runs := make([][]storage.Doc, shards)
	for s := range runs {
		docs := make([]storage.Doc, perShard)
		for i := range docs {
			docs[i] = storage.Doc{"k": rng.Intn(1 << 20)}
		}
		sort.SliceStable(docs, func(i, j int) bool {
			return docstore.CompareValues(docs[i]["k"], docs[j]["k"]) < 0
		})
		runs[s] = docs
	}
	return runs
}

func BenchmarkMergeSortedRuns(b *testing.B) {
	runs := rowRuns(b, benchRuns(4, 25000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSortedRuns(runs, "k", false)
	}
}

func BenchmarkConcatStableSort(b *testing.B) {
	runs := benchRuns(4, 25000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceMerge(runs, "k", false)
	}
}
