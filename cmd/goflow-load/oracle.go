package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/series"
)

// oracleCheck is one correctness assertion about the server's outputs.
// Any failed check fails the run.
type oracleCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func check(name string, ok bool, detail string) oracleCheck {
	return oracleCheck{Name: name, OK: ok, Detail: detail}
}

// tally counts acknowledged observations: all of them, and the ones
// that carry a location and so land in a named zone.
type tally struct{ obs, zoned int }

func (t *tally) add(batch []*sensing.Observation) {
	for _, o := range batch {
		t.obs++
		if o.Loc != nil {
			t.zoned++
		}
	}
}

// scanPage is the documents API's largest page.
const scanPage = 10000

type noiseRow struct {
	Zone  string  `json:"zone"`
	Count uint64  `json:"count"`
	LAeq  float64 `json:"laeq"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// storeOracle checks the stored state against what was acknowledged:
//
//   - stored document count == observations acked;
//   - Σ noisemap count == acked (all rows) and == acked-with-a-zone
//     (named rows): the rollups saw every insert exactly once;
//   - for the busiest zone that fits one page of the documents API, the
//     rollup answer equals an aggregate the harness computes itself from
//     the zone's documents.
//
// from and to must be bucket-aligned and cover every sensing instant.
func storeOracle(h *httpConn, acked tally, from, to time.Time, probeZone string) []oracleCheck {
	var out []oracleCheck
	fail := func(name string, err error) []oracleCheck {
		return append(out, check(name, false, err.Error()))
	}

	var cnt struct {
		Count int `json:"count"`
	}
	if err := h.getJSON("/v1/apps/"+appID+"/observations/count", &cnt); err != nil {
		return fail("stored count == acked", err)
	}
	out = append(out, check("stored count == acked", cnt.Count == acked.obs,
		fmt.Sprintf("stored %d, acked %d", cnt.Count, acked.obs)))

	rng := rangeQuery(from, to)
	var nm struct {
		Zones []noiseRow `json:"zones"`
	}
	if err := h.getJSON("/v1/apps/"+appID+"/noisemap?"+rng, &nm); err != nil {
		return fail("noisemap total == acked", err)
	}
	var all, named uint64
	busiest := noiseRow{}
	for _, z := range nm.Zones {
		all += z.Count
		if z.Zone != "" {
			named += z.Count
			// The documents API pages at 10 000, so the zone must fit one
			// page for the harness to aggregate all of it.
			if z.Zone != probeZone && z.Count > busiest.Count && z.Count <= scanPage {
				busiest = z
			}
		}
	}
	out = append(out, check("noisemap total == acked", all == uint64(acked.obs) && named == uint64(acked.zoned),
		fmt.Sprintf("rollups hold %d points (%d in named zones); acked %d (%d localized)", all, named, acked.obs, acked.zoned)))

	if busiest.Zone == "" {
		return append(out, check("scan == rollup", false, "no named zone has data"))
	}
	var zn noiseRow
	if err := h.getJSON("/v1/apps/"+appID+"/zones/"+busiest.Zone+"/noise?"+rng, &zn); err != nil {
		return fail("scan == rollup", err)
	}
	var docs struct {
		Observations []struct {
			SPL float64 `json:"spl"`
		} `json:"observations"`
	}
	if err := h.getJSON("/v1/apps/"+appID+"/observations?limit="+strconv.Itoa(scanPage)+"&zone="+busiest.Zone+"&"+rng, &docs); err != nil {
		return fail("scan == rollup", err)
	}
	var agg series.Agg
	for _, d := range docs.Observations {
		agg.Add(series.Quantize(d.SPL))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	same := agg.Count == zn.Count && near(agg.Min, zn.Min) && near(agg.Max, zn.Max) &&
		near(agg.Mean(), zn.Mean) && near(agg.LAeq(), zn.LAeq)
	return append(out, check("scan == rollup", same && agg.Count > 0,
		fmt.Sprintf("zone %s: scan n=%d mean=%.6f laeq=%.6f, rollup n=%d mean=%.6f laeq=%.6f",
			busiest.Zone, agg.Count, agg.Mean(), agg.LAeq(), zn.Count, zn.Mean, zn.LAeq)))
}
