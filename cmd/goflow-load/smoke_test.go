package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestQuickDeviceStreamEndToEnd builds the real server, runs the
// device-stream workload with -quick windows against it and checks that
// the run is correct and reports every end-to-end metric. Skipped under
// -short: it spawns processes and takes ten seconds.
func TestQuickDeviceStreamEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns goflow-server; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := specs.workload("device-stream")
	if !ok {
		t.Fatal("no device-stream workload")
	}
	defer killAllServers()
	r, err := timedRun(runOpts{root: root, serverBin: bin, specs: specs, spec: spec, seed: 1, window: 5 * time.Second, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v failed=%d oracle=%+v", r.Correct, r.Failed, r.Oracle)
	}
	if r.Comparable {
		t.Error("a quick run must be stamped non-comparable")
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", d.Name, m)
		}
	}
}
