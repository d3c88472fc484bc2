package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBoundIsAShareOfTheBaseline(t *testing.T) {
	cases := []struct {
		better     string
		bound      float64
		a, b       float64
		wantBreach bool
	}{
		{"lower", 0.10, 100, 109, false},
		{"lower", 0.10, 100, 111, true},
		{"lower", 0.10, 100, 50, false}, // an improvement never breaches
		{"higher", 0.10, 1000, 905, false},
		{"higher", 0.10, 1000, 895, true},
		{"higher", 0.10, 1000, 2000, false},
		{"lower", 0.25, 0, 5, false}, // no baseline, no verdict
	}
	for _, c := range cases {
		if got := breaches(c.better, c.bound, c.a, c.b); got != c.wantBreach {
			t.Errorf("breaches(%s, %v, %v → %v) = %v, want %v", c.better, c.bound, c.a, c.b, got, c.wantBreach)
		}
	}
}

func run(workload string, values map[string]float64, attempted, failed int) runResult {
	r := runResult{Workload: workload, Comparable: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range values {
		r.Metrics[k] = metric{Value: v}
	}
	return r
}

func TestCompareSetsFlagsBreachesAndFailRatio(t *testing.T) {
	bench := &benchmarkSpec{EndToEnd: []benchmarkMetric{
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
		{Name: "capacity_per_s", Better: "higher", Bound: 0.10},
	}}
	a := &resultSet{Runs: []runResult{
		run("w", map[string]float64{"latency_p50_ms": 2.0, "capacity_per_s": 1000}, 100, 0),
		run("w", map[string]float64{"latency_p50_ms": 2.2, "capacity_per_s": 1100}, 100, 0),
		run("w", map[string]float64{"latency_p50_ms": 9.9, "capacity_per_s": 10}, 100, 0),
	}}
	// a's medians: 2.2 ms and 1000/s.
	same := &resultSet{Runs: []runResult{run("w", map[string]float64{"latency_p50_ms": 2.3, "capacity_per_s": 950}, 100, 0)}}
	slower := &resultSet{Runs: []runResult{run("w", map[string]float64{"latency_p50_ms": 2.5, "capacity_per_s": 1000}, 100, 0)}}
	failing := &resultSet{Runs: []runResult{run("w", map[string]float64{"latency_p50_ms": 2.0, "capacity_per_s": 1000}, 100, 1)}}
	quick := &resultSet{Runs: []runResult{{Workload: "w", Comparable: false}}}

	var out bytes.Buffer
	if compareSets(&out, bench, a, same) {
		t.Errorf("a set within its bounds was flagged:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, bench, a, slower) || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 13.6 %% slower median was not flagged:\n%s", out.String())
	}
	if !compareSets(&out, bench, a, failing) {
		t.Error("a higher fail ratio was not flagged")
	}
	if !compareSets(&out, bench, a, quick) {
		t.Error("a set holding only non-comparable runs was accepted")
	}
}

// TestBenchmarkFileMatchesTheHarness pins BENCHMARK.json to what the
// harness prints: the same metric names, units, directions and bounds,
// the same workloads as bench/workloads.json, and the declared paths.
func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	root := filepath.Join("..", "..")
	bench, err := readBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs.Workloads) {
		t.Fatalf("%d workloads in %s, %d in %s", len(bench.Workloads), benchmarkFile, len(specs.Workloads), specFile)
	}
	for i, w := range specs.Workloads {
		if bench.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in %s, %q in %s", i, bench.Workloads[i].Name, benchmarkFile, w.Name, specFile)
		}
	}
	check := func(kind string, declared []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics in %s, %d in the harness", kind, len(declared), benchmarkFile, len(defs))
			return
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || (bounded && m.Bound != d.Bound) {
				t.Errorf("%s[%d]: %+v in %s, %+v in the harness", kind, i, m, benchmarkFile, d)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd, true)
	check("per_layer", bench.PerLayer, perLayer, false)
	hasSetup := false
	for _, m := range bench.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s is missing from end_to_end")
	}
	for _, p := range bench.Paths {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			t.Errorf("declared path %q: %v", p, err)
		}
	}
}
