package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{499, 95}, {500, 98}, {999, 98}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolatesBetweenClosestRanks(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := quantile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 50) != 0 || quantile([]float64{7}, 99) != 7 {
		t.Error("degenerate inputs")
	}
}

func TestSummarizeNamesThePercentileItCouldSupport(t *testing.T) {
	samples := make([]sample, 250)
	for i := range samples {
		samples[i] = sample{d: time.Duration(i+1) * time.Millisecond}
	}
	s := summarize(samples)
	if s.N != 250 || s.TailPct != 95 {
		t.Fatalf("got n=%d tail p%v, want 250 and p95", s.N, s.TailPct)
	}
	if math.Abs(s.P50-125.5) > 1e-9 || math.Abs(s.Tail-237.55) > 1e-9 {
		t.Errorf("p50 = %v, tail = %v; want 125.5 and 237.55", s.P50, s.Tail)
	}
}

func TestSlicedPercentileIgnoresOneBadSlice(t *testing.T) {
	window := 5 * time.Second
	var samples []sample
	for k := 0; k < slices; k++ {
		for i := 0; i < 100; i++ {
			d := time.Millisecond
			if k == 2 {
				d = time.Second // a stall confined to the middle slice
			}
			at := time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, d: d})
		}
	}
	got, minSlice := slicedPercentile(samples, window, 95)
	if got != 1 || minSlice != 100 {
		t.Errorf("sliced p95 = %v ms over slices of ≥%d, want 1 ms and 100", got, minSlice)
	}
	if all := summarize(samples); all.Tail < 999 {
		t.Errorf("the whole-window p%v (%v ms) should have been dragged up by the stall", all.TailPct, all.Tail)
	}
}
