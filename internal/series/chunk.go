package series

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunk is one block of encoded points inside a partition window. Its
// metadata doubles as the sparse index: MinTS/MaxTS bound the chunk on
// the time axis, and the run table says which zones it holds and when
// each zone's points fall, so a range or single-zone query decides what
// to decode from the headers alone.
//
// Points are grouped by zone: one Run per zone present, in the order
// the zones first appeared, each holding that zone's points in append
// order. Every aggregate is per zone, so reading a zone's points in its
// own append order is all any answer needs to come out bit-identical to
// one folded in global append order. A run encodes, per point, both
// zigzag varints:
//
//	delta-of-delta(timestamp ms)  (first point: ts − Part)
//	delta(value, centi-dB int64)  (first point: the value)
//
// One zone's observations tick at irregular intervals around a slowly
// moving level, so most points cost 5–7 bytes.
type Chunk struct {
	// Part is the owning partition's window start (Unix ms).
	Part int64
	// Seq orders chunks within a partition (seal order == append
	// order, which rollup rebuilds rely on); -1 for the active chunk.
	Seq int
	// Count is the number of encoded points.
	Count int
	// MinTS and MaxTS bound the points' timestamps (Unix ms),
	// inclusive.
	MinTS, MaxTS int64
	// MinVal and MaxVal bound the values (dB).
	MinVal, MaxVal float64
	// Runs is the run table: one run per zone, in first-appearance
	// order.
	Runs []Run

	// saved marks the chunk as persisted to its file (persist.go).
	saved bool
}

// Run is one zone's points inside a chunk, in append order.
type Run struct {
	Zone  string
	Count int
	// MinTS and MaxTS bound the run's timestamps (Unix ms), inclusive.
	MinTS, MaxTS int64
	// Data is the encoded point stream.
	Data []byte
}

// overlaps reports whether the chunk may contain points in [lo, hi).
func (c *Chunk) overlaps(lo, hi int64) bool {
	return c.Count > 0 && c.MaxTS >= lo && c.MinTS < hi
}

// run returns zone's run, nil when the chunk holds none of its points.
func (c *Chunk) run(zone string) *Run {
	for i := range c.Runs {
		if c.Runs[i].Zone == zone {
			return &c.Runs[i]
		}
	}
	return nil
}

// bytes is the size of the encoded point streams.
func (c *Chunk) bytes() int {
	n := 0
	for i := range c.Runs {
		n += len(c.Runs[i].Data)
	}
	return n
}

// points decodes the chunk, calling fn once per point: zone by zone in
// run order, each zone's points in append order.
func (c *Chunk) points(fn func(ts int64, v float64, zone string)) error {
	for i := range c.Runs {
		r := &c.Runs[i]
		if err := r.each(c.Part, func(ts, centi int64) { fn(ts, float64(centi)/100, r.Zone) }); err != nil {
			return fmt.Errorf("series: chunk %d/%d: %w", c.Part, c.Seq, err)
		}
	}
	return nil
}

// overlaps reports whether the run may contain points in [lo, hi).
func (r *Run) overlaps(lo, hi int64) bool {
	return r.MaxTS >= lo && r.MinTS < hi
}

// each decodes the run, calling fn once per point in append order with
// its timestamp and its value in centi-dB. part is the owning chunk's
// Part, the first point's timestamp base.
func (r *Run) each(part int64, fn func(ts, centi int64)) error {
	data := r.Data
	ts, delta, val := part, int64(0), int64(0)
	for i := 0; i < r.Count; i++ {
		dod, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("zone %q: truncated timestamp at point %d", r.Zone, i)
		}
		data = data[n:]
		dv, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("zone %q: truncated value at point %d", r.Zone, i)
		}
		data = data[n:]
		delta += unzigzag(dod)
		ts += delta
		val += unzigzag(dv)
		fn(ts, val)
	}
	if len(data) != 0 {
		return fmt.Errorf("zone %q: %d bytes after point %d", r.Zone, len(data), r.Count)
	}
	return nil
}

// chunkBuilder is the active chunk of a partition: a Chunk whose runs
// still grow, plus each run's encoder state. Queries read the embedded
// Chunk directly under the DB read lock; only appends, under the write
// lock, mutate it.
type chunkBuilder struct {
	Chunk
	enc     []runEnc // parallel to Runs
	zoneIdx map[string]int
}

// runEnc is what a run's next point is encoded against: the previous
// point's timestamp, timestamp delta and centi-dB value. A new run
// starts from (Part, 0, 0), so its first point stores ts − Part and the
// value itself.
type runEnc struct{ ts, delta, val int64 }

func newChunkBuilder(part int64) *chunkBuilder {
	return &chunkBuilder{Chunk: Chunk{Part: part, Seq: -1}, zoneIdx: make(map[string]int)}
}

// add encodes one point onto its zone's run.
func (b *chunkBuilder) add(p Point) {
	b.put(p.TS, int64(math.Round(p.Value*100)), p.Zone)
}

// put encodes one point, its value already in centi-dB. Out-of-order
// timestamps are fine — deltas go negative and zigzag absorbs the sign
// — the min/max index just widens.
func (b *chunkBuilder) put(ts, centi int64, zone string) {
	i, ok := b.zoneIdx[zone]
	if !ok {
		i = len(b.Runs)
		b.zoneIdx[zone] = i
		b.Runs = append(b.Runs, Run{Zone: zone, MinTS: ts, MaxTS: ts})
		b.enc = append(b.enc, runEnc{ts: b.Part})
	}
	r, e := &b.Runs[i], &b.enc[i]
	delta := ts - e.ts
	r.Data = binary.AppendUvarint(r.Data, zigzag(delta-e.delta))
	r.Data = binary.AppendUvarint(r.Data, zigzag(centi-e.val))
	*e = runEnc{ts: ts, delta: delta, val: centi}
	r.Count++
	r.MinTS, r.MaxTS = min(r.MinTS, ts), max(r.MaxTS, ts)

	// The value bounds are what the stream decodes to, so a chunk
	// rebuilt from its own stream has the same header.
	v := float64(centi) / 100
	if b.Count == 0 {
		b.MinTS, b.MaxTS, b.MinVal, b.MaxVal = ts, ts, v, v
	} else {
		b.MinTS, b.MaxTS = min(b.MinTS, ts), max(b.MaxTS, ts)
		b.MinVal, b.MaxVal = min(b.MinVal, v), max(b.MaxVal, v)
	}
	b.Count++
}

// seal freezes the builder into an immutable chunk, its runs' streams
// copied back to back into one exactly sized array.
func (b *chunkBuilder) seal(seq int) *Chunk {
	ch := b.Chunk
	ch.Seq = seq
	ch.Runs = make([]Run, len(b.Runs))
	buf := make([]byte, 0, b.bytes())
	for i, r := range b.Runs {
		start := len(buf)
		buf = append(buf, r.Data...)
		r.Data = buf[start:len(buf):len(buf)]
		ch.Runs[i] = r
	}
	return &ch
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
