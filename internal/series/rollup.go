package series

import "math"

// Histogram layout: fixed 1 dB bins over [0, 120) dB, the full range
// of environmental sound levels the sensing layer produces. Values
// outside the range clamp to the edge bins, so percentile answers for
// clamped values are only bin-accurate at the edges.
const (
	// HistBins is the number of histogram bins.
	HistBins = 120
	// HistMin is the lower bound of the first bin, in dB.
	HistMin = 0.0
	// HistBinWidth is the width of each bin, in dB. Percentiles read
	// from the histogram are exact to within this width.
	HistBinWidth = 1.0
)

// Agg is the continuous aggregate of one (zone, bucket): every
// summary the analytics and noisemap endpoints serve, maintained
// incrementally at ingest. Every field is mergeable — merging the
// aggs of two shards (or two buckets) gives exactly the agg of the
// union — which is what makes cross-shard and multi-bucket answers
// exact rather than approximate.
type Agg struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum and SumSq accumulate values and squared values (arithmetic
	// mean and variance).
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sumSq"`
	// Min and Max bound the values.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Energy accumulates 10^(v/10): the acoustically correct way to
	// average sound levels (LAeq is 10·log10(Energy/Count), matching
	// soundcity.LAeq over the raw values).
	Energy float64 `json:"energy"`
	// Hist is the fixed-bin dB histogram for percentiles.
	Hist [HistBins]uint32 `json:"hist"`
}

// Add folds one value in.
func (a *Agg) Add(v float64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
	a.SumSq += v * v
	a.Energy += math.Pow(10, v/10)
	a.Hist[histBin(v)]++
}

// histBin is the histogram bin of v, clamped to the edge bins. It
// never decreases as v grows, which is what lets Merge bound the bins
// an aggregate can have touched by its Min and Max.
func histBin(v float64) int {
	if !(v >= HistMin) { // below the range, or NaN
		return 0
	}
	if v >= HistMin+HistBins*HistBinWidth {
		return HistBins - 1
	}
	return int((v - HistMin) / HistBinWidth)
}

// Merge folds another aggregate in. Only the bins between o's Min and
// Max are added — every value o saw lies there, a handful of the 120
// for a five-minute bucket — unless that bound cannot be trusted: Min
// and Max do not order, or a NaN went in (it leaves Min and Max alone
// once they are set, but not Sum).
func (a *Agg) Merge(o *Agg) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = o.Min, o.Max
	} else {
		if o.Min < a.Min {
			a.Min = o.Min
		}
		if o.Max > a.Max {
			a.Max = o.Max
		}
	}
	a.Count += o.Count
	a.Sum += o.Sum
	a.SumSq += o.SumSq
	a.Energy += o.Energy
	lo, hi := 0, HistBins-1
	if o.Min <= o.Max && !math.IsNaN(o.Sum) {
		lo, hi = histBin(o.Min), histBin(o.Max)
	}
	for i := lo; i <= hi; i++ {
		a.Hist[i] += o.Hist[i]
	}
}

// Mean returns the arithmetic mean dB (0 when empty). For the
// acoustically meaningful average use LAeq.
func (a *Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// LAeq returns the equivalent continuous sound level: the energetic
// mean of the aggregated values (0 when empty).
func (a *Agg) LAeq() float64 { return laeq(a.Count, a.Energy) }

func laeq(count uint64, energy float64) float64 {
	if count == 0 {
		return 0
	}
	return 10 * math.Log10(energy/float64(count))
}

// Stddev returns the population standard deviation (0 when empty).
func (a *Agg) Stddev() float64 {
	if a.Count == 0 {
		return 0
	}
	mean := a.Sum / float64(a.Count)
	v := a.SumSq/float64(a.Count) - mean*mean
	if v < 0 {
		v = 0 // float cancellation on near-constant streams
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0 < p <= 100) read from the
// histogram: the center of the bin holding the value of that rank,
// exact to within HistBinWidth for values inside the histogram range.
func (a *Agg) Percentile(p float64) float64 {
	if a.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(a.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range a.Hist {
		cum += uint64(a.Hist[i])
		if cum >= rank {
			return HistMin + (float64(i)+0.5)*HistBinWidth
		}
	}
	return a.Max
}
