package goflow

import (
	"context"
	"errors"
	"maps"
	"math"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
)

// seedCrossModelObservations ingests observations from several models
// with known relative biases, co-located by hour (the default
// crowd-calibration cell).
func seedCrossModelObservations(t *testing.T, dm *DataManager) map[string]float64 {
	t.Helper()
	biases := map[string]float64{"MODEL-A": -4, "MODEL-B": 0, "MODEL-C": 4}
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for model, bias := range biases {
		for cell := 0; cell < 12; cell++ {
			ambient := 40.0 + float64(cell)
			for k := 0; k < 15; k++ {
				o := obsAt(t, model, ambient+bias, false, base.Add(time.Duration(cell)*time.Hour))
				if _, err := dm.Ingest("SC", "c-"+model, o, o.SensedAt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return biases
}

func TestCrowdCalibrateJob(t *testing.T) {
	j, dm := newJobs(t, 1)
	biases := seedCrossModelObservations(t, dm)

	id, err := j.Submit("SC", "crowd-calibrate")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job, err := j.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone {
		t.Fatalf("job state = %v (error %q)", job.State, job.Error)
	}
	// The job reads its observations as rows, in one context-bounded
	// read; its result over this store is what the paged document reads
	// it replaced gave.
	want := map[string]int{"models": 3, "observations": 540, "iterations": 2}
	if summary, ok := job.Result.(map[string]int); !ok || !maps.Equal(summary, want) {
		t.Fatalf("job result = %v, want %v", job.Result, want)
	}

	// The calibration collection holds crowd entries whose relative
	// spacing matches the seeded biases (zero-median gauge).
	got := make(map[string]float64, 3)
	for model := range biases {
		docs, err := dm.data.FindContext(t.Context(), CalibrationCollection,
			docstore.Doc{"appId": "SC", "model": model, "source": "crowd"}, docstore.FindOptions{Limit: 1})
		if err != nil || len(docs) == 0 {
			t.Fatalf("calibration doc for %s: %v", model, err)
		}
		doc := docs[0]
		bias, ok := doc["biasDb"].(float64)
		if !ok {
			t.Fatalf("biasDb missing: %v", doc)
		}
		got[model] = bias
	}
	for model, bias := range biases {
		if math.Abs(got[model]-bias) > 1e-9 {
			t.Fatalf("bias of %s = %v, want %v (zero-median gauge)", model, got[model], bias)
		}
	}

	// Re-running updates in place instead of duplicating.
	id2, err := j.Submit("SC", "crowd-calibrate")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job2, err := j.Status(id2)
	if err != nil || job2.State != JobDone {
		t.Fatalf("rerun state = %v, %v", job2.State, err)
	}
	n, err := dm.data.CountContext(t.Context(), CalibrationCollection, docstore.Doc{"appId": "SC", "source": "crowd"})
	if err != nil || n != 3 {
		t.Fatalf("calibration docs after rerun = %d, want 3", n)
	}
}

func TestCrowdCalibrateJobInsufficientData(t *testing.T) {
	j, dm := newJobs(t, 1)
	// One model only: no cross-model overlap.
	at := time.Now()
	for i := 0; i < 30; i++ {
		if _, err := dm.Ingest("SC", "c", obsAt(t, "LONELY", 50, false, at), at); err != nil {
			t.Fatal(err)
		}
	}
	id, err := j.Submit("SC", "crowd-calibrate")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job, err := j.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobFailed {
		t.Fatalf("job state = %v, want failed (insufficient overlap)", job.State)
	}
}

// TestJobsHonorTheirContext: the built-in jobs that read observations
// read them under the job's context — a cancelled job stops at the
// store, it does not scan the app to the end first.
func TestJobsHonorTheirContext(t *testing.T) {
	_, dm := newJobs(t, 1)
	seedCrossModelObservations(t, dm)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, name := range []string{"count-observations", "crowd-calibrate"} {
		if res, err := builtinJobs()[name](ctx, dm, "SC"); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a cancelled context = %v, %v; want context.Canceled", name, res, err)
		}
	}
}
