package goflow

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/sensing"
)

// Background jobs (Figure 2): application managers submit scripts
// that run over the app's stored crowd-sensed data — recomputing
// statistics, exporting extracts, purging stale data. Jobs run
// asynchronously with tracked status.

// JobFunc is a background script: it receives the app's observation
// query surface and returns an arbitrary JSON-compatible result.
type JobFunc func(ctx context.Context, dm *DataManager, appID string) (any, error)

// JobState is a job's lifecycle phase.
type JobState int

// Job states.
const (
	JobPending JobState = iota + 1
	JobRunning
	JobDone
	JobFailed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job tracks one submission.
type Job struct {
	ID          string    `json:"id"`
	AppID       string    `json:"appId"`
	Name        string    `json:"name"`
	State       JobState  `json:"state"`
	SubmittedAt time.Time `json:"submittedAt"`
	FinishedAt  time.Time `json:"finishedAt,omitempty"`
	Result      any       `json:"result,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// ErrJobNotFound is returned for unknown job ids.
var ErrJobNotFound = errors.New("goflow: job not found")

// Jobs runs background scripts with bounded concurrency.
type Jobs struct {
	dm *DataManager

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int

	sem  chan struct{}
	wg   sync.WaitGroup
	ctx  context.Context
	stop context.CancelFunc

	registry map[string]JobFunc
}

// NewJobs builds a job manager allowing maxConcurrent parallel jobs.
func NewJobs(dm *DataManager, maxConcurrent int) *Jobs {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Jobs{
		dm:       dm,
		jobs:     make(map[string]*Job),
		sem:      make(chan struct{}, maxConcurrent),
		ctx:      ctx,
		stop:     cancel,
		registry: builtinJobs(),
	}
}

// builtinJobs are the scripts available out of the box.
func builtinJobs() map[string]JobFunc {
	return map[string]JobFunc{
		// count-observations reports the app's total and localized
		// observation counts.
		"count-observations": func(ctx context.Context, dm *DataManager, appID string) (any, error) {
			total, err := dm.Count(ctx, Query{AppID: appID})
			if err != nil {
				return nil, err
			}
			loc := true
			localized, err := dm.Count(ctx, Query{AppID: appID, Localized: &loc})
			if err != nil {
				return nil, err
			}
			return map[string]int{"total": total, "localized": localized}, nil
		},
		// purge-unlocalized deletes the app's unlocalized observations.
		"purge-unlocalized": func(_ context.Context, dm *DataManager, appID string) (any, error) {
			n, err := dm.data.DeleteMany(ObservationsCollection, docstore.Doc{
				"appId":     appID,
				"localized": false,
			})
			if err != nil {
				return nil, err
			}
			return map[string]int{"deleted": n}, nil
		},
		// crowd-calibrate runs the cross-model median polish over the
		// app's stored observations and upserts the per-model biases
		// into the calibration collection (source "crowd"). Relative
		// biases only — the zero-median gauge; party-calibrated
		// anchors can re-reference them offline.
		"crowd-calibrate": crowdCalibrateJob,
	}
}

// CalibrationCollection stores server-side per-model calibration
// results.
const CalibrationCollection = "calibration"

// crowdCalibrateJob reconstructs the app's observations, in sensing
// order, and feeds them to the crowd-calibration algorithm. It reads
// them in one go: a row is a view of the stored document, far smaller
// than the observation built from it.
func crowdCalibrateJob(ctx context.Context, dm *DataManager, appID string) (any, error) {
	rows, err := dm.Retrieve(ctx, Query{AppID: appID})
	if err != nil {
		return nil, err
	}
	obs := make([]*sensing.Observation, 0, len(rows))
	for _, r := range rows {
		o, err := ObservationFromRow(r)
		if err != nil {
			continue // tolerate legacy documents
		}
		obs = append(obs, o)
	}
	res, err := sensing.CrowdCalibrate(obs, sensing.CrowdCalOptions{})
	if err != nil {
		return nil, fmt.Errorf("crowd-calibrate %q: %w", appID, err)
	}
	dm.data.EnsureIndex(CalibrationCollection, "model")
	updated := 0
	for model, bias := range res.Biases {
		filter := docstore.Doc{"appId": appID, "model": model, "source": "crowd"}
		existing, err := dm.data.FindContext(ctx, CalibrationCollection, filter, docstore.FindOptions{Limit: 1})
		if err != nil {
			return nil, err
		}
		if len(existing) > 0 {
			id, _ := existing[0][docstore.IDField].(string)
			if err := dm.data.Update(CalibrationCollection, id, docstore.Doc{"biasDb": bias, "updatedAt": time.Now()}); err != nil {
				return nil, err
			}
		} else {
			if _, err := dm.data.Insert(CalibrationCollection, docstore.Doc{
				"appId":     appID,
				"model":     model,
				"biasDb":    bias,
				"source":    "crowd",
				"updatedAt": time.Now(),
			}); err != nil {
				return nil, err
			}
		}
		updated++
	}
	return map[string]int{
		"models":       updated,
		"observations": res.ObsUsed,
		"iterations":   res.Iterations,
	}, nil
}

// Register adds a named script to the registry (overwriting any
// previous definition).
func (j *Jobs) Register(name string, fn JobFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.registry[name] = fn
}

// Submit enqueues a registered script for an app and returns the job
// id immediately.
func (j *Jobs) Submit(appID, name string) (string, error) {
	j.mu.Lock()
	fn, ok := j.registry[name]
	if !ok {
		j.mu.Unlock()
		return "", fmt.Errorf("goflow: unknown job %q", name)
	}
	j.nextID++
	id := "job-" + strconv.Itoa(j.nextID)
	job := &Job{
		ID:          id,
		AppID:       appID,
		Name:        name,
		State:       JobPending,
		SubmittedAt: time.Now(),
	}
	j.jobs[id] = job
	j.mu.Unlock()

	j.wg.Add(1)
	go j.run(job, fn)
	return id, nil
}

func (j *Jobs) run(job *Job, fn JobFunc) {
	defer j.wg.Done()
	select {
	case j.sem <- struct{}{}:
		defer func() { <-j.sem }()
	case <-j.ctx.Done():
		j.finish(job, nil, j.ctx.Err())
		return
	}
	j.mu.Lock()
	job.State = JobRunning
	j.mu.Unlock()
	result, err := fn(j.ctx, j.dm, job.AppID)
	j.finish(job, result, err)
}

func (j *Jobs) finish(job *Job, result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job.FinishedAt = time.Now()
	if err != nil {
		job.State = JobFailed
		job.Error = err.Error()
		return
	}
	job.State = JobDone
	job.Result = result
}

// Status returns a copy of the job record.
func (j *Jobs) Status(id string) (Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job, ok := j.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("job %q: %w", id, ErrJobNotFound)
	}
	return *job, nil
}

// Wait blocks until every submitted job has finished.
func (j *Jobs) Wait() { j.wg.Wait() }

// Shutdown cancels pending jobs and waits for running ones.
func (j *Jobs) Shutdown() {
	j.stop()
	j.wg.Wait()
}
