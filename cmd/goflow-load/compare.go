package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the contract at the repository root; -compare reads
// the regression bounds from it so that the tool and the driver can
// never disagree about them.
const benchmarkFile = "BENCHMARK.json"

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func readBenchmark(root string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, benchmarkFile))
	if err != nil {
		return nil, err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &b, nil
}

// worseBy is how much worse b is than a as a share of a: positive means
// a regression, whichever direction is better for the metric.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// breaches applies a bound: the share by which the metric may get worse
// before the change counts as a regression.
func breaches(better string, bound, a, b float64) bool {
	return worseBy(better, a, b) > bound
}

// setMedians reduces a set to one value per (workload, metric): the
// median over the set's timed, comparable runs of that workload.
func setMedians(s *resultSet) (values map[string]map[string]float64, failRatio map[string]float64, order []string) {
	samples := map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	for _, r := range s.Runs {
		if r.Trace || !r.Comparable {
			continue
		}
		if samples[r.Workload] == nil {
			samples[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, m := range r.Metrics {
			samples[r.Workload][name] = append(samples[r.Workload][name], m.Value)
		}
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
	}
	values, failRatio = map[string]map[string]float64{}, map[string]float64{}
	for w, ms := range samples {
		values[w] = map[string]float64{}
		for name, v := range ms {
			values[w][name] = median(v)
		}
		failRatio[w] = per(float64(failed[w]), float64(attempted[w]))
	}
	return values, failRatio, order
}

// compareSets prints one row per (end-to-end metric, workload) with both
// values, the delta and the bound, and reports whether b regressed: a
// bound breached, or a higher fail ratio.
func compareSets(w io.Writer, bench *benchmarkSpec, a, b *resultSet) (regressed bool) {
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc {
		fmt.Fprintf(w, "warning: the sets come from different machines (%d × %q vs %d × %q); bounds assume one machine\n",
			a.Env.NProc, a.Env.CPUModel, b.Env.NProc, b.Env.CPUModel)
	}
	av, af, order := setMedians(a)
	bv, bf, _ := setMedians(b)
	if len(order) == 0 {
		fmt.Fprintln(w, "the first set holds no comparable timed run (quick runs are not comparable)")
		return true
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "")
	for _, wl := range order {
		if bv[wl] == nil {
			fmt.Fprintf(w, "%-16s missing from the second set\n", wl)
			regressed = true
			continue
		}
		for _, m := range bench.EndToEnd {
			x, y := av[wl][m.Name], bv[wl][m.Name]
			verdict := "ok"
			if breaches(m.Better, m.Bound, x, y) {
				verdict = "BREACH"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl, m.Name, x, y, worseBy(m.Better, x, y)*100, m.Bound*100, verdict)
		}
		verdict := "ok"
		if bf[wl] > af[wl] {
			verdict = "BREACH"
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-16s %14.6f %14.6f %9s %7s  %s\n", wl, "fail_ratio", af[wl], bf[wl], "", "none", verdict)
	}
	return regressed
}
