package predict

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
)

// Quiet-path rerouting: extend soundcity journeys into navigation.
// The default route is the straight origin→destination line scored by
// predicted exposure; when its forecast LAeq crosses the health-band
// threshold, a Dijkstra search over the zone grid looks for a path
// that trades a bounded detour for materially less predicted noise —
// City-flow's rerouter (propose an alternative when predicted
// congestion > 0.5) with dB in place of congestion.

// ErrOutsideArea reports an origin or destination outside the
// deployment area's zone grid.
var ErrOutsideArea = errors.New("predict: origin or destination outside the deployment area")

// The rerouter's constants.
const (
	// thresholdDB is the predicted path LAeq above which an alternative
	// is searched for: the boundary of soundcity's "high" health band.
	thresholdDB = 65.0
	// unknownDB is the exposure assumed for zones with no forecast:
	// cold zones have little sensed activity, which in a crowd-sensed
	// map correlates with quiet.
	unknownDB = 45.0
	// minGainDB is the minimum predicted improvement an alternative
	// must offer to be proposed.
	minGainDB = 1.0
	// maxDetour caps the alternative's length as a multiple of the
	// default path's.
	maxDetour = 2.5
)

// Path is one candidate route scored by predicted exposure.
type Path struct {
	// Zones are the grid zones the path crosses, in travel order.
	Zones []string `json:"zones"`
	// Points are waypoints: origin, intermediate cell centers (for a
	// rerouted path), destination.
	Points []geo.Point `json:"points"`
	// LengthM is the path length in meters.
	LengthM float64 `json:"lengthM"`
	// LAeqDB is the distance-weighted predicted exposure over the
	// path: the LAeq of traversing it at constant speed at the
	// forecast target.
	LAeqDB float64 `json:"laeqDb"`
}

// RouteSuggestion is the rerouter's answer.
type RouteSuggestion struct {
	Default Path `json:"default"`
	// Alternative is a quieter path, present only when Rerouted.
	Alternative *Path `json:"alternative,omitempty"`
	// Rerouted reports that the default path's forecast crossed the
	// threshold AND a materially quieter alternative within the detour
	// budget exists.
	Rerouted    bool      `json:"rerouted"`
	ThresholdDB float64   `json:"thresholdDb"`
	GeneratedAt time.Time `json:"generatedAt"`
	Target      time.Time `json:"target"`
}

// Rerouter scores candidate paths over the zone grid by predicted
// exposure.
type Rerouter struct {
	zones *geo.ZoneGrid
	f     *Forecaster
}

// NewRerouter builds a rerouter over the forecaster's predictions.
func NewRerouter(zones *geo.ZoneGrid, f *Forecaster) *Rerouter {
	return &Rerouter{zones: zones, f: f}
}

// QuietRoute scores the straight origin→destination path under the
// current forecasts and proposes a quieter alternative when the
// default's predicted exposure crosses the threshold.
func (r *Rerouter) QuietRoute(ctx context.Context, from, to geo.Point) (RouteSuggestion, error) {
	start := r.f.metrics.start()
	sug, err := r.quietRoute(ctx, from, to)
	r.f.metrics.reroute(sug.Rerouted, start)
	return sug, err
}

func (r *Rerouter) quietRoute(ctx context.Context, from, to geo.Point) (RouteSuggestion, error) {
	fr, fc, okFrom := r.zones.Cell(from)
	tr, tc, okTo := r.zones.Cell(to)
	if !okFrom || !okTo {
		return RouteSuggestion{}, ErrOutsideArea
	}
	fcs, err := r.f.Sweep(ctx)
	if err != nil {
		return RouteSuggestion{}, err
	}
	asOf := r.f.clock.Now()
	level := func(zone string) float64 {
		if f, ok := fcs[zone]; ok {
			return f.ValueDB
		}
		return unknownDB
	}

	sug := RouteSuggestion{
		ThresholdDB: thresholdDB,
		GeneratedAt: asOf,
		Target:      asOf.Add(r.f.Horizon()),
		Default:     r.scoreSegment(from, to, level),
	}
	if sug.Default.LAeqDB < thresholdDB {
		return sug, nil
	}
	alt, ok := r.search(fr, fc, tr, tc, from, to, level)
	if !ok {
		return sug, nil
	}
	if alt.LAeqDB <= sug.Default.LAeqDB-minGainDB &&
		(sug.Default.LengthM == 0 || alt.LengthM <= maxDetour*sug.Default.LengthM) {
		sug.Alternative = &alt
		sug.Rerouted = true
	}
	return sug, nil
}

// scoreSegment scores the straight from→to line: walked in small
// steps, each step's length attributed to the zone under its midpoint.
func (r *Rerouter) scoreSegment(from, to geo.Point, level func(string) float64) Path {
	total := from.DistanceMeters(to)
	startZone := r.zones.ZoneID(from)
	if total == 0 {
		return Path{
			Zones:   []string{startZone},
			Points:  []geo.Point{from, to},
			LAeqDB:  level(startZone),
			LengthM: 0,
		}
	}
	steps := int(math.Ceil(total / r.stepMeters()))
	if steps < 1 {
		steps = 1
	}
	var (
		zones  []string
		energy float64 // Σ d_i · 10^(L_i/10)
	)
	prev := from
	for i := 1; i <= steps; i++ {
		t := float64(i) / float64(steps)
		p := geo.Point{
			Lat: from.Lat + (to.Lat-from.Lat)*t,
			Lon: from.Lon + (to.Lon-from.Lon)*t,
		}
		mid := geo.Point{Lat: (prev.Lat + p.Lat) / 2, Lon: (prev.Lon + p.Lon) / 2}
		zone := r.zones.ZoneID(mid)
		if len(zones) == 0 || zones[len(zones)-1] != zone {
			zones = append(zones, zone)
		}
		energy += prev.DistanceMeters(p) * math.Pow(10, level(zone)/10)
		prev = p
	}
	return Path{
		Zones:   zones,
		Points:  []geo.Point{from, to},
		LengthM: total,
		LAeqDB:  10 * math.Log10(energy/total),
	}
}

// stepMeters is the sampling step for segment scoring: a quarter of
// the smaller cell side, so no crossed cell is skipped.
func (r *Rerouter) stepMeters() float64 {
	h := r.zones.CellCenter(0, 0).DistanceMeters(r.zones.CellCenter(1, 0))
	w := r.zones.CellCenter(0, 0).DistanceMeters(r.zones.CellCenter(0, 1))
	if r.zones.Rows() < 2 {
		h = w
	}
	if r.zones.Cols() < 2 {
		w = h
	}
	s := math.Min(h, w) / 4
	if s <= 0 || math.IsNaN(s) {
		s = 50
	}
	return s
}

// search runs Dijkstra over the 8-connected cell graph. The cost of
// entering a cell is stepDistance · (1 + 10^((L−threshold)/10)): far
// below the threshold the term vanishes and the search degenerates to
// shortest-path; every 10 dB above the threshold multiplies the
// perceived distance ~10×. Ties break on node index, so the result is
// deterministic for a given forecast map.
func (r *Rerouter) search(fr, fc, tr, tc int, from, to geo.Point, level func(string) float64) (Path, bool) {
	rows, cols := r.zones.Rows(), r.zones.Cols()
	n := rows * cols
	start, goal := fr*cols+fc, tr*cols+tc

	latStep := r.zones.CellCenter(0, 0).DistanceMeters(r.zones.CellCenter(1, 0))
	lonStep := r.zones.CellCenter(0, 0).DistanceMeters(r.zones.CellCenter(0, 1))
	if rows < 2 {
		latStep = lonStep
	}
	if cols < 2 {
		lonStep = latStep
	}
	diagStep := math.Hypot(latStep, lonStep)

	// Per-cell noise penalty multiplier, computed once.
	penalty := make([]float64, n)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			l := level(r.zones.ZoneOf(row, col))
			penalty[row*cols+col] = 1 + math.Pow(10, (l-thresholdDB)/10)
		}
	}

	const unvisited = math.MaxFloat64
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = unvisited
		prev[i] = -1
	}
	dist[start] = 0
	pq := &nodeHeap{{idx: start, cost: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(node)
		if cur.idx == goal {
			break
		}
		if cur.cost > dist[cur.idx] {
			continue
		}
		row, col := cur.idx/cols, cur.idx%cols
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				if dr == 0 && dc == 0 {
					continue
				}
				nr, nc := row+dr, col+dc
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				step := diagStep
				switch {
				case dr == 0:
					step = lonStep
				case dc == 0:
					step = latStep
				}
				ni := nr*cols + nc
				nd := cur.cost + step*penalty[ni]
				if nd < dist[ni] {
					dist[ni] = nd
					prev[ni] = cur.idx
					heap.Push(pq, node{idx: ni, cost: nd})
				}
			}
		}
	}
	if dist[goal] == unvisited {
		return Path{}, false
	}

	// Reconstruct the cell chain and turn it into waypoints: origin,
	// the centers of the interior cells, destination.
	var chain []int
	for at := goal; at != -1; at = prev[at] {
		chain = append(chain, at)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	points := []geo.Point{from}
	zones := make([]string, 0, len(chain))
	for i, idx := range chain {
		zones = append(zones, r.zones.ZoneOf(idx/cols, idx%cols))
		if i > 0 && i < len(chain)-1 {
			points = append(points, r.zones.CellCenter(idx/cols, idx%cols))
		}
	}
	points = append(points, to)

	// Score the reconstructed polyline with the same segment scorer as
	// the default path, so the two LAeq numbers are comparable.
	var (
		length float64
		energy float64
	)
	zonesSeen := zones[:0:0]
	for i := 1; i < len(points); i++ {
		seg := r.scoreSegment(points[i-1], points[i], level)
		if seg.LengthM == 0 {
			continue
		}
		length += seg.LengthM
		energy += seg.LengthM * math.Pow(10, seg.LAeqDB/10)
		for _, z := range seg.Zones {
			if len(zonesSeen) == 0 || zonesSeen[len(zonesSeen)-1] != z {
				zonesSeen = append(zonesSeen, z)
			}
		}
	}
	if length == 0 {
		z := r.zones.ZoneOf(goal/cols, goal%cols)
		return Path{Zones: []string{z}, Points: points, LAeqDB: level(z)}, true
	}
	return Path{
		Zones:   zonesSeen,
		Points:  points,
		LengthM: length,
		LAeqDB:  10 * math.Log10(energy/length),
	}, true
}

type node struct {
	idx  int
	cost float64
}

type nodeHeap []node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].idx < h[j].idx
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
