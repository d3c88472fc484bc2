package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/urbancivics/goflow/internal/device"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
)

// specFile holds the workload parameters; rates live in a file beside
// the docs so that lowering one is a visible diff, never a silent edit.
const specFile = "bench/workloads.json"

// workloadSpec is one entry of bench/workloads.json. Fields a workload
// does not use stay zero.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// ServerFlags are passed beyond the common -wal-dir -series -predict.
	ServerFlags []string `json:"server_flags"`
	Worker1     string   `json:"worker1"`
	Worker2     string   `json:"worker2"`
	// SetupRepeats is how many times set-up is timed per run; the median
	// is reported.
	SetupRepeats int `json:"setup_repeats"`

	// Broker workloads: observations per second offered by worker 1 and
	// how many one flush carries.
	ObsPerSecond float64 `json:"obs_per_s"`
	Batch        int     `json:"batch"`
	// ProbeEveryMs spaces the tagged freshness probes.
	ProbeEveryMs int `json:"probe_every_ms"`
	// BurstObsPerWindowSecond sizes the closing burst: M = this ×
	// window seconds, sent BurstBatch per publish.
	BurstObsPerWindowSecond int `json:"burst_obs_per_window_s"`
	BurstBatch              int `json:"burst_batch"`

	// REST workload: POSTs per second per uploader, Batch observations
	// each; the closing burst runs both uploaders closed-loop for
	// BurstWindowShare × window seconds.
	PostsPerSecondPerWorker float64 `json:"posts_per_s_per_worker"`
	BurstWindowShare        float64 `json:"burst_window_share"`

	// Read workload: documents bulk-loaded before the crash, and the
	// logged-in user's own history uploaded after the restart.
	PreloadObservations int `json:"preload_obs"`
	HistoryObservations int `json:"history_obs"`
}

type specSet struct {
	Devices       int            `json:"devices"`
	ProbeZone     string         `json:"probe_zone"`
	WarmupSeconds float64        `json:"warmup_s"`
	Workloads     []workloadSpec `json:"workloads"`
}

func loadSpecs(root string) (*specSet, error) {
	raw, err := os.ReadFile(root + "/" + specFile)
	if err != nil {
		return nil, err
	}
	var s specSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if s.Devices < 2 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: devices and workloads are required", specFile)
	}
	for _, w := range s.Workloads {
		if w.SetupRepeats < 1 {
			return nil, fmt.Errorf("%s: workload %q needs setup_repeats >= 1", specFile, w.Name)
		}
	}
	return &s, nil
}

func (s *specSet) warmup() time.Duration {
	return time.Duration(s.WarmupSeconds * float64(time.Second))
}

func (s *specSet) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// simDevice is one simulated phone: its profile, and after login the
// credentials and broker endpoint the server issued it.
type simDevice struct {
	profile  *device.SimDevice
	clientID string
	exchange string
}

// fleet is the simulated population. Observation content is drawn from
// the internal/device profiles — model microphone response, provider
// mix, localized fraction, the user's roaming — so the server decodes,
// indexes and aggregates the same field mix as the study's data.
type fleet struct {
	devices   []*simDevice
	probe     *simDevice // publishes only the tagged probe observations
	zones     *geo.ZoneGrid
	probeZone string
	probeAt   geo.Point
	activity  sensing.ActivityModel
}

func newFleet(seed int64, n int, probeZone string) (*fleet, error) {
	models := device.TopModels()
	perModel := (n + len(models) - 1) / len(models)
	// A vanishing scale leaves the per-model floor in charge of the
	// head count: n devices spread evenly over the catalog.
	df, err := device.NewFleet(device.GeneratorConfig{Scale: 1e-9, Seed: seed, MinDevicesPerModel: perModel})
	if err != nil {
		return nil, err
	}
	if len(df.Devices) < n {
		return nil, fmt.Errorf("fleet: %d devices generated, %d wanted", len(df.Devices), n)
	}
	zones := geo.ParisZones()
	at, ok := zones.ZoneCenter(probeZone)
	if !ok {
		return nil, fmt.Errorf("fleet: probe zone %q is not on the grid", probeZone)
	}
	f := &fleet{zones: zones, probeZone: probeZone, probeAt: at, activity: sensing.DefaultActivityModel()}
	// Interleave models so that any prefix of the device list mixes them.
	for i := 0; len(f.devices) < n; i++ {
		idx := (i%len(models))*perModel + i/len(models)
		f.devices = append(f.devices, &simDevice{profile: df.Devices[idx]})
	}
	f.probe = &simDevice{profile: df.Devices[0]}
	return f, nil
}

// observation draws one measurement for device d at the given instant.
// Positions falling into the reserved probe zone are redrawn: that
// zone's count must move only when a probe lands.
func (f *fleet) observation(rng *rand.Rand, d int, at time.Time) *sensing.Observation {
	dev := f.devices[d].profile
	mode := sensing.Opportunistic
	if rng.Float64() < dev.User.ManualRate {
		mode = sensing.Manual
	}
	ambient := 0.0
	if h := at.Hour(); h >= 8 && h <= 20 {
		ambient += 3
	}
	if mode != sensing.Opportunistic {
		ambient += 6
	}
	act, conf := f.activity.Sample(rng)
	o := &sensing.Observation{
		UserID:             dev.ID,
		DeviceModel:        dev.Model.Name,
		AppVersion:         "1.3",
		Mode:               mode,
		SPL:                dev.Model.Mic.SampleRawSPL(rng, ambient),
		Activity:           act,
		ActivityConfidence: conf,
		SensedAt:           at,
	}
	locProb := dev.Model.LocalizedFraction()
	if mode != sensing.Opportunistic {
		locProb = min(1, locProb*1.8)
	}
	if rng.Float64() < locProb {
		provider := sensing.MixForMode(dev.Model.ProviderMix, mode).Sample(rng)
		pos := dev.User.SamplePosition(rng)
		for f.zones.ZoneID(pos) == f.probeZone {
			pos = dev.User.SamplePosition(rng)
		}
		o.Loc = &sensing.Location{Point: pos, AccuracyM: sensing.SampleAccuracy(provider, rng), Provider: provider}
	}
	return o
}

// probeObservation is a localized measurement at the probe zone's
// center.
func (f *fleet) probeObservation(rng *rand.Rand, at time.Time) *sensing.Observation {
	dev := f.probe.profile
	return &sensing.Observation{
		UserID:             dev.ID,
		DeviceModel:        dev.Model.Name,
		AppVersion:         "1.3",
		Mode:               sensing.Manual,
		SPL:                dev.Model.Mic.SampleRawSPL(rng, 6),
		Activity:           sensing.ActivityStill,
		ActivityConfidence: 0.9,
		SensedAt:           at,
		Loc:                &sensing.Location{Point: f.probeAt, AccuracyM: 8, Provider: sensing.ProviderGPS},
	}
}

// diurnalInstant draws an instant in the trailing span before end,
// weighted by the device user's hour-of-day curve.
func (f *fleet) diurnalInstant(rng *rand.Rand, d int, end time.Time, span time.Duration) time.Time {
	user := f.devices[d].profile.User
	peak := 0.0
	for h := 0; h < 24; h++ {
		peak = max(peak, user.HourWeight(h))
	}
	for {
		t := end.Add(-time.Duration(rng.Float64() * float64(span)))
		if rng.Float64()*peak <= user.HourWeight(t.Hour()) {
			return t
		}
	}
}
