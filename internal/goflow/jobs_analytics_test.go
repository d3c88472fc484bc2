package goflow

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func newJobs(t *testing.T, concurrent int) (*Jobs, *DataManager) {
	t.Helper()
	dm, _ := newDataManager(t)
	j := NewJobs(dm, concurrent)
	t.Cleanup(j.Shutdown)
	return j, dm
}

func TestJobLifecycle(t *testing.T) {
	j, dm := newJobs(t, 2)
	at := time.Now()
	if _, err := dm.Ingest("SC", "c", obsAt(t, "A", 50, true, at), at); err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Ingest("SC", "c", obsAt(t, "A", 50, false, at), at); err != nil {
		t.Fatal(err)
	}
	id, err := j.Submit("SC", "count-observations")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job, err := j.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone {
		t.Fatalf("state = %v (err %q)", job.State, job.Error)
	}
	result, ok := job.Result.(map[string]int)
	if !ok || result["total"] != 2 || result["localized"] != 1 {
		t.Fatalf("result = %v", job.Result)
	}
}

func TestJobUnknownNameAndStatus(t *testing.T) {
	j, _ := newJobs(t, 1)
	if _, err := j.Submit("SC", "mine-bitcoin"); err == nil {
		t.Fatal("unknown job must fail at submit")
	}
	if _, err := j.Status("job-999"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown status = %v", err)
	}
}

func TestJobFailureState(t *testing.T) {
	j, _ := newJobs(t, 1)
	j.Register("boom", func(context.Context, *DataManager, string) (any, error) {
		return nil, errors.New("kaboom")
	})
	id, err := j.Submit("SC", "boom")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job, err := j.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobFailed || job.Error != "kaboom" {
		t.Fatalf("job = %+v", job)
	}
}

func TestJobConcurrencyCap(t *testing.T) {
	j, _ := newJobs(t, 2)
	var running, peak atomic.Int32
	block := make(chan struct{})
	j.Register("slow", func(ctx context.Context, _ *DataManager, _ string) (any, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		select {
		case <-block:
		case <-ctx.Done():
		}
		running.Add(-1)
		return nil, nil
	})
	for i := 0; i < 5; i++ {
		if _, err := j.Submit("SC", "slow"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(block)
	j.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency = %d, cap was 2", p)
	}
}

func TestJobPurgeUnlocalized(t *testing.T) {
	j, dm := newJobs(t, 1)
	at := time.Now()
	if _, err := dm.Ingest("SC", "c", obsAt(t, "A", 50, true, at), at); err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Ingest("SC", "c", obsAt(t, "A", 50, false, at), at); err != nil {
		t.Fatal(err)
	}
	id, err := j.Submit("SC", "purge-unlocalized")
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	job, err := j.Status(id)
	if err != nil || job.State != JobDone {
		t.Fatalf("job = %+v, %v", job, err)
	}
	n, err := dm.Count(t.Context(), Query{AppID: "SC"})
	if err != nil || n != 1 {
		t.Fatalf("after purge count = %d", n)
	}
}

func TestJobNamesSorted(t *testing.T) {
	j, _ := newJobs(t, 1)
	names := j.names()
	if len(names) < 2 {
		t.Fatalf("builtin jobs missing: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names must be sorted")
		}
	}
}

func TestAnalyticsAggregation(t *testing.T) {
	a := NewAnalytics()
	now := time.Now()
	a.RecordIngest("SC", "anon1", "NEXUS 5", true, now)
	a.RecordIngest("SC", "anon1", "NEXUS 5", false, now.Add(time.Second))
	a.RecordIngest("SC", "anon2", "D5803", true, now)
	a.RecordRejection()

	sum := a.Summary()
	if sum.Ingested != 3 || sum.Rejected != 1 || len(sum.Apps) != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	st, ok := a.ForApp("SC")
	if !ok {
		t.Fatal("app stats missing")
	}
	if st.Ingested != 3 || st.Localized != 2 {
		t.Fatalf("app stats = %+v", st)
	}
	if st.ByModel["NEXUS 5"] != 2 || st.ByClient["anon2"] != 1 {
		t.Fatalf("per-key stats = %+v", st)
	}
	if !st.LastIngest.Equal(now.Add(time.Second)) {
		t.Fatal("LastIngest must track the newest ingest")
	}
	// Returned snapshot is a copy.
	st.ByModel["NEXUS 5"] = 999
	again, _ := a.ForApp("SC")
	if again.ByModel["NEXUS 5"] != 2 {
		t.Fatal("ForApp must return a copy")
	}
	if _, ok := a.ForApp("GHOST"); ok {
		t.Fatal("unknown app must report !ok")
	}
}

// names lists registered script names, sorted.
func (j *Jobs) names() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	names := make([]string, 0, len(j.registry))
	for n := range j.registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
