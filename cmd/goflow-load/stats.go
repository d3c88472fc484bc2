package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported: with fewer, the figure is one or two outliers.
const minTailSamples = 10

// tailCandidates are the percentiles the picker chooses from, highest
// first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that has at
// least minTailSamples samples beyond it among n, or 50 when the
// sample is too small for any tail at all.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// Round before comparing: 1000 × (1 − 0.99) is 10.000000000000009
		// in floating point, but 999 × 0.01 must not pass.
		if beyond := math.Floor(float64(n)*(100-p)/100 + 1e-9); beyond >= minTailSamples {
			return p
		}
	}
	return 50
}

// quantile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive"), so a reader can check a
// figure from the raw samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 50) }

// latencyStat summarizes one latency sample: the median, and the tail
// at the percentile the sample size supports.
type latencyStat struct {
	N       int
	P50     float64 // milliseconds
	Tail    float64 // milliseconds
	TailPct float64 // which percentile Tail is (99 when N >= 1000)
}

func summarize(samples []sample) latencyStat {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(s.d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	pct := tailPercentile(len(ms))
	return latencyStat{N: len(ms), P50: quantile(ms, 50), Tail: quantile(ms, pct), TailPct: pct}
}

// medianDuration returns the median of d in the given unit.
func medianDuration(d []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(unit)
	}
	return median(v)
}

// slicedPercentile cuts the window's samples into slices by due time,
// takes the p-th percentile of each slice and returns the median slice's
// figure, with the size of the smallest slice.
func slicedPercentile(samples []sample, window time.Duration, p float64) (value float64, minSlice int) {
	var per [slices][]float64
	for _, s := range samples {
		k := sliceOf(s.at, window)
		per[k] = append(per[k], float64(s.d)/float64(time.Millisecond))
	}
	var vals []float64
	minSlice = len(samples)
	for _, v := range per {
		minSlice = min(minSlice, len(v))
		if len(v) > 0 {
			vals = append(vals, quantile(sortedCopy(v), p))
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	return median(vals), minSlice
}
