package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchPayload is sized like a gob-encoded observation mutation.
var benchPayload = make([]byte, 256)

// BenchmarkWALAppend measures committed appends per second under each
// fsync policy and appender count. The headline comparison is grouped
// vs always at appenders>=8: group commit amortizes the fsync — the
// dominant cost — across the whole batch, so its per-record throughput
// should exceed per-record fsync by an order of magnitude.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncNone, FsyncGrouped, FsyncAlways} {
		for _, appenders := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("policy=%s/appenders=%d", policy, appenders), func(b *testing.B) {
				w, err := Open(b.TempDir(), Options{Policy: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				b.SetBytes(int64(recordSize(len(benchPayload))))
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / appenders
				extra := b.N % appenders
				for g := 0; g < appenders; g++ {
					n := per
					if g < extra {
						n++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := w.log(1, benchPayload); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
				b.StopTimer()
				st := w.Stats()
				if st.Fsyncs > 0 {
					b.ReportMetric(float64(st.Records)/float64(st.Fsyncs), "records/fsync")
				}
			})
		}
	}
}

// BenchmarkWALReplay measures recovery speed: replaying a 100k-record
// log, the worst case a checkpoint interval is meant to bound.
func BenchmarkWALReplay(b *testing.B) {
	const records = 100_000
	dir := b.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := w.Append(1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(int64(records * recordSize(len(benchPayload))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := Replay(r, skipRecord, func(uint64, struct{}) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// TestReplayTimeBudget pins the acceptance bound directly: a 100k-record
// log (10k under -short) must replay well inside the time a restart can
// afford. Checkpoints exist precisely to keep the log at or below this
// size.
func TestReplayTimeBudget(t *testing.T) {
	records := 100_000
	if testing.Short() {
		records = 10_000
	}
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := w.Append(1, benchPayload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	n := 0
	if err := Replay(r, skipRecord, func(uint64, struct{}) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if n != records {
		t.Fatalf("replayed %d, want %d", n, records)
	}
	const budget = 10 * time.Second
	if elapsed > budget {
		t.Fatalf("replaying %d records took %v, budget %v", records, elapsed, budget)
	}
	t.Logf("replayed %d records in %v", records, elapsed)
}
