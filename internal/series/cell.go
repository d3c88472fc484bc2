package series

import "math"

// Stored rollups. A (zone, bucket) of the dashboard's shape holds about
// three observations, and the engine keeps every bucket for ever, yet a
// full Agg spends 480 of its 528 bytes on a 120-bin histogram that such
// a bucket touches in three places. The engine therefore stores each
// bucket as a cell: Agg's summary head plus the histogram bins of its
// first cellInline values, one byte each, spilling to a dense histogram
// on the next value. Agg stays the type of every answer and merge; a
// cell only ever expands into one, by the same float operations in the
// same order, so every answer keeps its bits.

// cellInline is how many values a cell keeps as bin indexes before it
// spills: as many as fill the cell's 64-byte size class beside the
// head and the spill pointer.
const cellInline = 8

// cell is the stored form of one (zone, bucket) rollup. Its head fields
// mean what Agg's do. While hist is nil, bins[:count] are the histogram
// bins of the values added so far; once hist is set it is the whole
// histogram and bins is unused.
type cell struct {
	count                        uint64
	sum, sumSq, min, max, energy float64
	bins                         [cellInline]uint8
	hist                         *[HistBins]uint32
}

// add folds one value in, exactly as Agg.Add does. It reports whether
// the cell spilled to a dense histogram.
func (c *cell) add(v float64) (spilled bool) {
	if c.count == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	bin := histBin(v)
	if c.hist == nil && c.count < cellInline {
		c.bins[c.count] = uint8(bin)
	} else {
		if c.hist == nil {
			c.hist = new([HistBins]uint32)
			for _, b := range c.bins {
				c.hist[b]++
			}
			spilled = true
		}
		c.hist[bin]++
	}
	c.count++
	c.sum += v
	c.sumSq += v * v
	c.energy += math.Pow(10, v/10)
	return spilled
}

// mergeInto folds the cell into a, exactly as a.Merge(&c.agg()) would:
// the same float operations in the same order, and only the bins
// between bin(min) and bin(max) unless that bound cannot be trusted.
func (c *cell) mergeInto(a *Agg) {
	if c.count == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = c.min, c.max
	} else {
		if c.min < a.Min {
			a.Min = c.min
		}
		if c.max > a.Max {
			a.Max = c.max
		}
	}
	a.Count += c.count
	a.Sum += c.sum
	a.SumSq += c.sumSq
	a.Energy += c.energy
	lo, hi := 0, HistBins-1
	if c.min <= c.max && !math.IsNaN(c.sum) {
		lo, hi = histBin(c.min), histBin(c.max)
	}
	if c.hist != nil {
		for i := lo; i <= hi; i++ {
			a.Hist[i] += c.hist[i]
		}
		return
	}
	for _, b := range c.bins[:c.count] {
		if int(b) >= lo && int(b) <= hi {
			a.Hist[b]++
		}
	}
}

// agg expands the cell into the Agg it stands for.
func (c *cell) agg() Agg {
	a := Agg{Count: c.count, Sum: c.sum, SumSq: c.sumSq, Min: c.min, Max: c.max, Energy: c.energy}
	if c.hist != nil {
		a.Hist = *c.hist
		return a
	}
	for _, b := range c.bins[:c.count] {
		a.Hist[b]++
	}
	return a
}

// cellOf is the cell that expands back to exactly a. It keeps the bins
// inline only when they account for every one of at most cellInline
// values; any other histogram — a full bucket, or one read from a file
// whose bins do not add up to its count — stays dense as it is.
func cellOf(a *Agg) *cell {
	c := &cell{count: a.Count, sum: a.Sum, sumSq: a.SumSq, min: a.Min, max: a.Max, energy: a.Energy}
	if a.Count <= cellInline {
		n := 0
		for b, k := range a.Hist {
			for ; k > 0 && n < cellInline; k-- {
				c.bins[n] = uint8(b)
				n++
			}
			if k > 0 {
				n = cellInline + 1 // more values than fit
				break
			}
		}
		if uint64(n) == a.Count {
			return c
		}
	}
	h := a.Hist
	c.hist = &h
	return c
}
