package series

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/obs"
)

// mergeFullLoop is the reference Merge: every field, all 120 bins.
func mergeFullLoop(a, o *Agg) {
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
	for i := range a.Hist {
		a.Hist[i] += o.Hist[i]
	}
}

// sameBits compares two Aggs field by field with floats by bit pattern,
// so NaN sums compare equal to themselves.
func sameBits(a, b *Agg) bool {
	f := math.Float64bits
	return a.Count == b.Count && a.Hist == b.Hist &&
		f(a.Sum) == f(b.Sum) && f(a.SumSq) == f(b.SumSq) && f(a.Energy) == f(b.Energy) &&
		f(a.Min) == f(b.Min) && f(a.Max) == f(b.Max)
}

func histTotal(a *Agg) uint64 {
	var n uint64
	for _, c := range a.Hist {
		n += uint64(c)
	}
	return n
}

// TestMergeTouchesOnlyOccupiedBins: Merge adds only the bins between
// bin(Min) and bin(Max) of what it folds in. Against a full-loop
// reference it must agree on every field — for values clamped into the
// edge bins, empty and already-merged operands, a NaN that slipped in
// after Min/Max were set, and hand-built Min/Max that do not order.
func TestMergeTouchesOnlyOccupiedBins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomAgg := func() Agg {
		var a Agg
		center, width := rng.Float64()*140-10, rng.Float64()*30
		for n := rng.Intn(40); n > 0; n-- {
			v := center + (rng.Float64()-0.5)*width
			switch rng.Intn(12) {
			case 0:
				v = -3 - rng.Float64()*50 // clamps into bin 0
			case 1:
				v = 120 + rng.Float64()*50 // clamps into the last bin
			case 2:
				v = []float64{0, 119.99, 120, -0.01, 1e300, -1e300}[rng.Intn(6)]
			}
			a.Add(Quantize(v))
		}
		return a
	}
	pool := []Agg{{}}
	for i := 0; i < 200; i++ {
		pool = append(pool, randomAgg())
	}
	for i := 0; i < 50; i++ { // already-merged operands
		m := pool[rng.Intn(len(pool))]
		for k := rng.Intn(4); k >= 0; k-- {
			m.Merge(&pool[rng.Intn(len(pool))])
		}
		pool = append(pool, m)
	}
	var poisoned Agg // Min/Max stay 60 and 70, bin 0 is occupied all the same
	poisoned.Add(60)
	poisoned.Add(math.NaN())
	poisoned.Add(70)
	pool = append(pool, poisoned)
	nan, inf := math.NaN(), math.Inf(1)
	for _, mm := range [][2]float64{{nan, 50}, {50, nan}, {nan, nan}, {-inf, inf}, {inf, -inf}, {-inf, 30}, {90, inf}} {
		h := Agg{Count: 12, Sum: 600, SumSq: 30000, Energy: 12e5, Min: mm[0], Max: mm[1]}
		bins := []int{0, 17, 50, 119}
		if mm[0] <= mm[1] { // an ordered range bounds its bins, like a real one
			bins = []int{histBin(mm[0]), histBin(mm[1])}
		}
		for _, b := range bins {
			h.Hist[b] += uint32(12 / len(bins))
		}
		pool = append(pool, h)
	}

	for i := range pool {
		if got := histTotal(&pool[i]); got != pool[i].Count {
			t.Fatalf("fixture %d: Σ Hist %d != Count %d", i, got, pool[i].Count)
		}
		for j := range pool {
			got, want := pool[i], pool[i]
			got.Merge(&pool[j])
			mergeFullLoop(&want, &pool[j])
			if !sameBits(&got, &want) {
				t.Fatalf("Merge(%d into %d) differs from the full-loop merge:\n into %+v\n from %+v\n got  %+v\n want %+v",
					j, i, pool[i], pool[j], got, want)
			}
		}
	}
}

// memoProgram drives one DB through a seeded history and, after every
// step, compares the tiered read paths against a reference that knows
// nothing of windows: db.rollups merged bucket by bucket, ascending,
// with the full-loop merge, plus a naive filter of the fed points for
// the sub-bucket edges.
type memoProgram struct {
	t    *testing.T
	rng  *rand.Rand
	db   *DB
	opts Options
	// fed is every point the DB holds, in arrival order; floor is the
	// instant below which raw points may have been aged out, so
	// unaligned questions (which read raw edges) are asked above it.
	fed   []Point
	floor int64
	lsn   uint64
	// span is how much time the data covers from testBase.
	span time.Duration
}

var memoZones = []string{"FR75001", "FR75002", "FR75003", ""}

func (p *memoProgram) append(pts ...Point) {
	p.lsn++
	p.db.AppendBatch(p.lsn, pts)
	p.fed = append(p.fed, pts...)
}

func (p *memoProgram) point(ts int64) Point {
	return Point{TS: ts, Value: 30 + p.rng.Float64()*70, Zone: memoZones[p.rng.Intn(len(memoZones))]}
}

// sortedStarts returns zone's bucket starts in [lo, hi), ascending.
func (p *memoProgram) sortedStarts(zone string, lo, hi int64) []int64 {
	var out []int64
	for b := range p.db.rollups[zone] {
		if b >= lo && b < hi {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *memoProgram) refAggregate(zone string, lo, hi int64) Agg {
	var want Agg
	if lo >= hi {
		return want
	}
	af, at := alignUp(lo, p.db.bucketMs), alignDown(hi, p.db.bucketMs)
	if af >= at {
		af, at = hi, hi // all edge
	}
	for _, b := range p.sortedStarts(zone, af, at) {
		a := p.db.rollups[zone][b].agg()
		mergeFullLoop(&want, &a)
	}
	for _, edge := range [][2]int64{{lo, af}, {at, hi}} {
		for _, pt := range p.fed {
			if pt.Zone == zone && pt.TS >= edge[0] && pt.TS < edge[1] {
				want.Add(Quantize(pt.Value))
			}
		}
	}
	return want
}

func (p *memoProgram) refBuckets(zone string, from, to int64) []Bucket {
	var out []Bucket
	for _, b := range p.sortedStarts(zone, alignDown(from, p.db.bucketMs), to) {
		a := p.db.rollups[zone][b].agg()
		out = append(out, Bucket{Start: b, Count: a.Count, Energy: a.Energy})
	}
	return out
}

func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

func (p *memoProgram) requireAgg(label string, got, want Agg) {
	p.t.Helper()
	if got.Count != want.Count || got.Hist != want.Hist || got.Min != want.Min || got.Max != want.Max {
		p.t.Fatalf("%s: integer-exact fields differ:\n got  %+v\n want %+v", label, got, want)
	}
	if !relClose(got.Sum, want.Sum) || !relClose(got.SumSq, want.SumSq) || !relClose(got.Energy, want.Energy) {
		p.t.Fatalf("%s: float sums beyond 1e-12:\n got  %v %v %v\n want %v %v %v", label,
			got.Sum, got.SumSq, got.Energy, want.Sum, want.SumSq, want.Energy)
	}
	if got.Percentile(50) != want.Percentile(50) || got.Percentile(95) != want.Percentile(95) {
		p.t.Fatalf("%s: percentiles differ from identical histograms", label)
	}
}

// window draws one question: sub-window, exactly one window, a day, or
// wider than the data; bucket-aligned or ragged.
func (p *memoProgram) window() (lo, hi int64) {
	base, span := testBase.UnixMilli(), p.span.Milliseconds()
	w, b := p.db.windowMs, p.db.bucketMs
	aligned := p.rng.Intn(2) == 0
	switch p.rng.Intn(5) {
	case 0: // inside one window
		lo = base + p.rng.Int63n(span)
		hi = lo + 1 + p.rng.Int63n(w)
	case 1: // exactly one window
		lo = alignDown(base+p.rng.Int63n(span), w)
		hi = lo + w
		aligned = true
	case 2: // a day, the REST default
		hi = base + p.rng.Int63n(span+w)
		lo = hi - 24*w
	case 3: // a few windows
		lo = base + p.rng.Int63n(span)
		hi = lo + p.rng.Int63n(6*w)
	default: // wider than the data on both sides
		lo, hi = base-1000*w-p.rng.Int63n(w), base+span+1000*w+p.rng.Int63n(w)
		aligned = true
	}
	if aligned {
		return alignDown(lo, b), alignDown(hi, b)
	}
	// Ragged edges read raw points, which retention drops below floor.
	if lo < p.floor {
		lo = alignUp(p.floor, b) + p.rng.Int63n(b)
	}
	return lo, hi
}

func (p *memoProgram) check(step string) {
	p.t.Helper()
	ctx := context.Background()
	zones := append([]string{"nowhere"}, memoZones...)
	for trial := 0; trial < 40; trial++ {
		lo, hi := p.window()
		from, to := time.UnixMilli(lo), time.UnixMilli(hi)
		label := fmt.Sprintf("%s trial %d [%d, %d)", step, trial, lo, hi)

		zone := zones[p.rng.Intn(len(zones))]
		got, err := p.db.ZoneAggregate(ctx, zone, from, to)
		if err != nil {
			p.t.Fatal(err)
		}
		p.requireAgg(label+" zone "+zone, got, p.refAggregate(zone, lo, hi))

		nm, err := p.db.Noisemap(ctx, from, to)
		if err != nil {
			p.t.Fatal(err)
		}
		for _, z := range zones {
			want := p.refAggregate(z, lo, hi)
			got, present := nm[z]
			if present != (want.Count > 0) {
				p.t.Fatalf("%s noisemap zone %q: present=%v, reference count %d", label, z, present, want.Count)
			}
			p.requireAgg(label+" noisemap zone "+z, got, want)
		}

		bs, err := p.db.ZoneBuckets(ctx, zone, from, to)
		if err != nil {
			p.t.Fatal(err)
		}
		if want := p.refBuckets(zone, lo, hi); !reflect.DeepEqual(bs, want) {
			p.t.Fatalf("%s ZoneBuckets %q:\n got  %+v\n want %+v", label, zone, bs, want)
		}
		all, err := p.db.AllBuckets(ctx, from, to)
		if err != nil {
			p.t.Fatal(err)
		}
		for _, z := range zones {
			if want := p.refBuckets(z, lo, hi); !reflect.DeepEqual(all[z], want) {
				p.t.Fatalf("%s AllBuckets %q:\n got  %+v\n want %+v", label, z, all[z], want)
			}
		}
	}
}

// fixedAnswers asks a fixed set of questions — the ones whose answers
// must not depend on what the process lived through.
func (p *memoProgram) fixedAnswers() []Agg {
	ctx := context.Background()
	base := testBase.UnixMilli()
	ragged := alignUp(p.floor, p.db.bucketMs) + 61_000
	var out []Agg
	for _, q := range [][2]int64{
		{base, base + p.span.Milliseconds()},
		{base - 5000*p.db.windowMs, base + 5000*p.db.windowMs},
		{base + 7*p.db.bucketMs, base + 7*p.db.bucketMs + 24*p.db.windowMs},
		{ragged, ragged + 5*p.db.windowMs + 1234},
	} {
		for _, z := range memoZones {
			a, err := p.db.ZoneAggregate(ctx, z, time.UnixMilli(q[0]), time.UnixMilli(q[1]))
			if err != nil {
				p.t.Fatal(err)
			}
			out = append(out, a)
		}
	}
	return out
}

func (p *memoProgram) reopen(step string) {
	p.t.Helper()
	before := p.fixedAnswers()
	if err := p.db.Checkpoint(); err != nil {
		p.t.Fatal(err)
	}
	db, err := Open(p.opts)
	if err != nil {
		p.t.Fatal(err)
	}
	p.db = db
	if after := p.fixedAnswers(); !reflect.DeepEqual(before, after) {
		p.t.Fatalf("%s: the same questions got different answers after a reopen", step)
	}
}

// TestWindowMemoMatchesFlatMerge: tiered answers equal flat ones,
// whatever happened to the windows.
func TestWindowMemoMatchesFlatMerge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := &memoProgram{
				t: t, rng: rand.New(rand.NewSource(seed)), span: 30 * time.Hour,
				opts: Options{Dir: t.TempDir(), chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 48},
			}
			var err error
			if p.db, err = Open(p.opts); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			p.db.Instrument(reg)
			base, span := testBase.UnixMilli(), p.span.Milliseconds()

			// In-order appends, one point per mutation.
			ts := base
			for ts < base+span {
				p.append(p.point(ts))
				ts += 1 + p.rng.Int63n(2*60_000)
			}
			p.check("in order")

			// Late uploads into windows the checks above memoized.
			for i := 0; i < 300; i++ {
				p.append(p.point(base + p.rng.Int63n(span)))
				if i%100 == 99 {
					p.check("late appends")
				}
			}

			// InsertMany-sized batches straddling a window edge.
			for i := 0; i < 6; i++ {
				edge := alignDown(base+p.rng.Int63n(span), p.db.windowMs)
				batch := make([]Point, 50)
				for j := range batch {
					batch[j] = p.point(edge - 10*60_000 + p.rng.Int63n(20*60_000))
				}
				p.append(batch...)
			}
			p.check("batches across a window edge")

			// Retention drops raw chunks; the rollups, and so the memos,
			// answer as before.
			cutoff := testBase.Add(9*time.Hour + 20*time.Minute)
			if p.db.ApplyRetention(cutoff) == 0 {
				t.Fatal("retention dropped nothing")
			}
			p.floor = cutoff.UnixMilli()
			p.check("after retention")

			p.reopen("checkpoint → Open")
			p.db.Instrument(reg)
			p.check("reopened")
			for i := 0; i < 100; i++ {
				p.append(p.point(base + p.rng.Int63n(span)))
			}
			p.check("late appends after reopen")

			// A corrupted rollups file: Open rebuilds them from chunks —
			// without the buckets whose raw points retention aged out,
			// which is how the rebuild shows.
			intact := p.db.Stats().RollupBuckets
			if err := p.db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			matches, err := filepath.Glob(filepath.Join(p.opts.Dir, "rollups-*.gob"))
			if err != nil || len(matches) != 1 {
				t.Fatalf("rollups file: %v, %v", matches, err)
			}
			raw, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if p.db, err = Open(p.opts); err != nil {
				t.Fatal(err)
			}
			p.db.Instrument(reg)
			if got := p.db.Stats().RollupBuckets; got == 0 || got >= intact {
				t.Fatalf("%d rollup buckets after Open against %d before: not the rebuild path", got, intact)
			}
			p.check("rebuilt from chunks")
			p.append(p.point(base + span/2))
			p.check("append after rebuild")

			// Snapshot bootstrap: reset, then re-feed a different city.
			if err := p.db.ResetTo(p.lsn); err != nil {
				t.Fatal(err)
			}
			p.fed, p.floor = nil, 0
			p.check("reset, empty")
			for i := 0; i < 40; i++ {
				batch := make([]Point, 50)
				for j := range batch {
					batch[j] = p.point(base + p.rng.Int63n(span))
				}
				p.append(batch...)
			}
			p.check("re-fed after reset")

			memo := reg.CounterVec("series_window_memo_total", "", "result")
			if hits, fills := memo.With("hit").Value(), memo.With("fill").Value(); hits == 0 || fills == 0 {
				t.Fatalf("the program never exercised the memo: %d hits, %d fills", hits, fills)
			}
		})
	}
}

// TestWindowMemoConcurrentReaders runs readers on all four read paths
// while an appender keeps landing points in the windows they read, so
// memos are dropped and refilled and chunks grow and seal under them
// (-race). An answer may
// predate an append but must be whole: Σ Hist == Count, counts never
// shrink, bucket series stay ascending. Once the appender stops, the
// tiered answer equals the flat merge.
func TestWindowMemoConcurrentReaders(t *testing.T) {
	db := New(Options{chunkWindow: time.Hour, RollupBucket: 5 * time.Minute, MaxChunkPoints: 256})
	p := &memoProgram{t: t, rng: rand.New(rand.NewSource(9)), db: db, span: 8 * time.Hour}
	base, span := testBase.UnixMilli(), p.span.Milliseconds()
	for i := 0; i < 2000; i++ {
		p.append(p.point(base + p.rng.Int63n(span)))
	}
	ctx := context.Background()
	from, to := testBase.Add(7*time.Minute), testBase.Add(7*time.Hour+33*time.Minute)
	lo, hi := alignUp(from.UnixMilli(), db.bucketMs), alignDown(to.UnixMilli(), db.bucketMs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() (count uint64, err error)) {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := read()
			if err != nil {
				t.Error(err)
				return
			}
			if n < last {
				t.Errorf("an answer went back in time: count %d after %d", n, last)
				return
			}
			last = n
		}
	}
	whole := func(a *Agg) error {
		if got := histTotal(a); got != a.Count {
			return fmt.Errorf("torn aggregate: Σ Hist %d != Count %d", got, a.Count)
		}
		return nil
	}
	series := func(bs []Bucket) (uint64, error) {
		var n uint64
		for i := range bs {
			if bs[i].Count == 0 || (i > 0 && bs[i-1].Start >= bs[i].Start) {
				return 0, fmt.Errorf("bucket series broken at %d: %+v", i, bs)
			}
			n += bs[i].Count
		}
		return n, nil
	}
	// Aligned, the answers come from the window memos; unaligned, their
	// edges also decode the runs of sealed chunks and of the active one
	// that appends keep growing and sealing.
	wg.Add(6)
	for _, r := range [][2]time.Time{{time.UnixMilli(lo), time.UnixMilli(hi)}, {from, to}} {
		from, to := r[0], r[1]
		go reader(func() (uint64, error) {
			a, err := db.ZoneAggregate(ctx, "FR75001", from, to)
			if err != nil {
				return 0, err
			}
			return a.Count, whole(&a)
		})
		go reader(func() (uint64, error) {
			m, err := db.Noisemap(ctx, from, to)
			if err != nil {
				return 0, err
			}
			var n uint64
			for _, a := range m {
				if err := whole(&a); err != nil {
					return 0, err
				}
				n += a.Count
			}
			return n, nil
		})
	}
	go reader(func() (uint64, error) {
		bs, err := db.ZoneBuckets(ctx, "FR75002", from, to)
		if err != nil {
			return 0, err
		}
		return series(bs)
	})
	go reader(func() (uint64, error) {
		all, err := db.AllBuckets(ctx, from, to)
		if err != nil {
			return 0, err
		}
		var n uint64
		for _, bs := range all {
			c, err := series(bs)
			if err != nil {
				return 0, err
			}
			n += c
		}
		return n, nil
	})
	for i := 0; i < 4000; i++ {
		p.append(p.point(base + p.rng.Int63n(span)))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	p.check("quiescent")
}
