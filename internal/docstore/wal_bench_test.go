package docstore

import (
	"fmt"
	"sync"
	"testing"

	"github.com/urbancivics/goflow/internal/wal"
)

// BenchmarkInsertWithWAL measures observation ingest throughput through
// the full mutation path — clone, index, encode, WAL append, group
// commit — under each fsync policy, plus the no-WAL in-memory baseline.
func BenchmarkInsertWithWAL(b *testing.B) {
	run := func(b *testing.B, s *Store, writers int) {
		obs := s.Collection("observations")
		obs.EnsureIndex("place")
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / writers
		extra := b.N % writers
		for g := 0; g < writers; g++ {
			n := per
			if g < extra {
				n++
			}
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := obs.Insert(Doc{"db": 40 + i%60, "place": fmt.Sprintf("p%d", i%8), "writer": g}); err != nil {
						b.Error(err)
						return
					}
				}
			}(g, n)
		}
		wg.Wait()
	}

	for _, writers := range []int{1, 32} {
		b.Run(fmt.Sprintf("wal=off/writers=%d", writers), func(b *testing.B) {
			run(b, NewStore(), writers)
		})
		for _, policy := range []wal.FsyncPolicy{wal.FsyncNone, wal.FsyncGrouped, wal.FsyncAlways} {
			b.Run(fmt.Sprintf("wal=%s/writers=%d", policy, writers), func(b *testing.B) {
				w, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				s := NewStore()
				AttachWAL(s, w)
				run(b, s, writers)
			})
		}
	}
}
