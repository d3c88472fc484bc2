package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultRunMatchesResults is the golden test of the committed
// transcript: the default run prints results/experiments.txt byte for
// byte and writes exactly the CSVs in results/. A change that moves a
// figure regenerates them with
//
//	go run ./cmd/experiments -scale 0.01 -seed 42 -csv results > results/experiments.txt
func TestDefaultRunMatchesResults(t *testing.T) {
	golden := filepath.Join("..", "..", "results")
	csvDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-csv", csvDir}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.Bytes())
	}
	want, err := os.ReadFile(filepath.Join(golden, "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("transcript differs from results/experiments.txt; got:\n%s", stdout.Bytes())
	}
	wantCSV, err := filepath.Glob(filepath.Join(golden, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, err := filepath.Glob(filepath.Join(csvDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCSV) != len(wantCSV) {
		t.Errorf("run wrote %d CSV files, results/ holds %d", len(gotCSV), len(wantCSV))
	}
	for _, w := range wantCSV {
		wb, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(csvDir, filepath.Base(w)))
		if err != nil {
			t.Errorf("results/%s: %v", filepath.Base(w), err)
			continue
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("results/%s differs from the run's CSV", filepath.Base(w))
		}
	}
}
