package mq

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// BenchmarkLiveFanout10k measures per-event fan-out latency with 10k
// connected watchers partitioned over 100 zones (100 subscribers per
// zone, so each publish matches 1% of the fleet — the noisemap
// dashboard shape). Drainer goroutines keep mailboxes moving; any
// drops or sheds are reported as metrics so regressions in mailbox
// sizing show up in the numbers, not as silent losses.
func BenchmarkLiveFanout10k(b *testing.B) {
	const (
		nSubs  = 10000
		nZones = 100
	)
	br := NewBroker()
	defer br.Close()
	if err := br.DeclareExchange("GFX", Topic); err != nil {
		b.Fatal(err)
	}
	lc := countLive(br)

	var wg sync.WaitGroup
	quit := make(chan struct{})
	for i := 0; i < nSubs; i++ {
		pattern := fmt.Sprintf("sc.*.obs.Z%d", i%nZones)
		s, err := br.SubscribeLive("GFX", []string{pattern}, LiveSubOptions{Buffer: 1024})
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(s *LiveSub) {
			defer wg.Done()
			for {
				select {
				case <-s.C():
				case <-quit:
					return
				}
			}
		}(s)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "sc.c1.obs.Z" + strconv.Itoa(i%nZones)
		if _, err := br.PublishAt("GFX", key, nil, nil, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(quit)
	wg.Wait()

	b.ReportMetric(float64(lc.delivered.Load())/float64(b.N), "delivered/event")
	b.ReportMetric(float64(lc.dropped.Load()), "dropped")
	b.ReportMetric(float64(lc.shed.Load()), "shed")
}
