package goflow

import (
	"sort"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
)

// Analytics generates statistics about app and client operations
// (Figure 2's "crowd-sensing analytics" component): ingest counters
// per app, per client and per device model, plus error counters.
// They are the counts /metrics exposes as goflow_ingested_total and
// goflow_rejected_total.
type Analytics struct {
	mu       sync.Mutex
	perApp   map[string]*AppAnalytics
	started  time.Time
	rejected uint64
}

// AppAnalytics aggregates one app's activity.
type AppAnalytics struct {
	AppID      string            `json:"appId"`
	Ingested   uint64            `json:"ingested"`
	Localized  uint64            `json:"localized"`
	ByModel    map[string]uint64 `json:"byModel"`
	ByClient   map[string]uint64 `json:"byClient"`
	LastIngest time.Time         `json:"lastIngest"`
}

// NewAnalytics returns an empty analytics sink.
func NewAnalytics() *Analytics {
	return &Analytics{
		perApp:  make(map[string]*AppAnalytics),
		started: time.Now(),
	}
}

// RecordIngest counts one stored observation.
func (a *Analytics) RecordIngest(appID, anonClientID, model string, localized bool, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.perApp[appID]
	if !ok {
		st = &AppAnalytics{
			AppID:    appID,
			ByModel:  make(map[string]uint64),
			ByClient: make(map[string]uint64),
		}
		a.perApp[appID] = st
	}
	st.Ingested++
	if localized {
		st.Localized++
	}
	st.ByModel[model]++
	st.ByClient[anonClientID]++
	if at.After(st.LastIngest) {
		st.LastIngest = at
	}
}

// RecordIngestBatch counts a run of stored observations from one
// client under a single lock acquisition; receivedAt[i] stamps
// observations[i]. Equivalent to calling RecordIngest per observation.
func (a *Analytics) RecordIngestBatch(appID, anonClientID string, observations []*sensing.Observation, receivedAt []time.Time) {
	if len(observations) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.perApp[appID]
	if !ok {
		st = &AppAnalytics{
			AppID:    appID,
			ByModel:  make(map[string]uint64),
			ByClient: make(map[string]uint64),
		}
		a.perApp[appID] = st
	}
	st.Ingested += uint64(len(observations))
	st.ByClient[anonClientID] += uint64(len(observations))
	for i, o := range observations {
		if o.Localized() {
			st.Localized++
		}
		st.ByModel[o.DeviceModel]++
		if receivedAt[i].After(st.LastIngest) {
			st.LastIngest = receivedAt[i]
		}
	}
}

// RecordRejection counts one rejected (invalid) message.
func (a *Analytics) RecordRejection() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rejected++
}

// Summary is the global analytics snapshot.
type Summary struct {
	Ingested uint64   `json:"ingested"`
	Rejected uint64   `json:"rejected"`
	Apps     []string `json:"apps"`
}

// Summary snapshots the global counters.
func (a *Analytics) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := Summary{Rejected: a.rejected, Apps: make([]string, 0, len(a.perApp))}
	for id, st := range a.perApp {
		sum.Ingested += st.Ingested
		sum.Apps = append(sum.Apps, id)
	}
	sort.Strings(sum.Apps)
	return sum
}

// counts snapshots the ingest count of every app and the rejections.
func (a *Analytics) counts() (ingested map[string]uint64, rejected uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ingested = make(map[string]uint64, len(a.perApp))
	for id, st := range a.perApp {
		ingested[id] = st.Ingested
	}
	return ingested, a.rejected
}

// ForApp snapshots one app's analytics (deep copy).
func (a *Analytics) ForApp(appID string) (AppAnalytics, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.perApp[appID]
	if !ok {
		return AppAnalytics{}, false
	}
	cp := AppAnalytics{
		AppID:      st.AppID,
		Ingested:   st.Ingested,
		Localized:  st.Localized,
		ByModel:    make(map[string]uint64, len(st.ByModel)),
		ByClient:   make(map[string]uint64, len(st.ByClient)),
		LastIngest: st.LastIngest,
	}
	for k, v := range st.ByModel {
		cp.ByModel[k] = v
	}
	for k, v := range st.ByClient {
		cp.ByClient[k] = v
	}
	return cp, true
}
