package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Set replaces the count with one a layer keeps itself, read at scrape
// from an OnCollect callback, so the event is counted at one site
// only. The source must never decrease.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Gauge is a value that can go up and down (queue depth, open
// connections). All methods are lock-free and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		cur := math.Float64frombits(old)
		if bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}
