package adaptive

import (
	"math"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/soundcity"
)

func triggerObs(user string, spl, accuracy float64, conf float64, at time.Time) *sensing.Observation {
	return &sensing.Observation{
		UserID:             user,
		DeviceModel:        "LGE NEXUS 5",
		Mode:               sensing.Opportunistic,
		SPL:                spl,
		Loc:                &sensing.Location{Point: geo.Point{Lat: 48.85, Lon: 2.35}, AccuracyM: accuracy, Provider: sensing.ProviderGPS},
		Activity:           sensing.ActivityStill,
		ActivityConfidence: conf,
		SensedAt:           at,
	}
}

func TestTriggerPolicyValidate(t *testing.T) {
	good := DefaultTriggerPolicy()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.MaxAccuracyM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero accuracy gate must fail")
	}
	bad = good
	bad.MaxPerDay = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero daily cap must fail")
	}
	bad = good
	bad.QuietFromHour = 24
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range quiet hour must fail")
	}
}

func TestTriggerGates(t *testing.T) {
	trig, err := NewFeedbackTrigger(DefaultTriggerPolicy())
	if err != nil {
		t.Fatal(err)
	}
	noon := time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)
	tests := []struct {
		name   string
		obs    *sensing.Observation
		prompt bool
	}{
		{"good", triggerObs("u1", 72, 15, 0.9, noon), true},
		{"unlocalized", func() *sensing.Observation {
			o := triggerObs("u2", 72, 15, 0.9, noon)
			o.Loc = nil
			return o
		}(), false},
		{"coarse location", triggerObs("u3", 72, 95, 0.9, noon), false},
		{"quiet level", triggerObs("u4", 45, 15, 0.9, noon), false},
		{"unqualified activity", triggerObs("u5", 72, 15, 0.5, noon), false},
		{"quiet hours", triggerObs("u6", 72, 15, 0.9, noon.Add(11*time.Hour)), false}, // 23:00
		{"nil", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := trig.Consider(tt.obs)
			if d.Prompt != tt.prompt {
				t.Fatalf("Consider() = %+v, want prompt=%v", d, tt.prompt)
			}
			if d.Reason == "" {
				t.Fatal("decision must carry a reason")
			}
		})
	}
}

func TestTriggerCooldownAndDailyCap(t *testing.T) {
	policy := DefaultTriggerPolicy()
	policy.Cooldown = time.Hour
	policy.MaxPerDay = 2
	trig, err := NewFeedbackTrigger(policy)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC)
	if d := trig.Consider(triggerObs("u1", 72, 15, 0.9, base)); !d.Prompt {
		t.Fatalf("first prompt blocked: %v", d)
	}
	// Within the cooldown: blocked.
	if d := trig.Consider(triggerObs("u1", 75, 15, 0.9, base.Add(30*time.Minute))); d.Prompt {
		t.Fatal("cooldown ignored")
	}
	// After the cooldown: second of the day allowed.
	if d := trig.Consider(triggerObs("u1", 75, 15, 0.9, base.Add(2*time.Hour))); !d.Prompt {
		t.Fatalf("second prompt blocked: %v", d)
	}
	// Third of the day: daily cap.
	if d := trig.Consider(triggerObs("u1", 75, 15, 0.9, base.Add(4*time.Hour))); d.Prompt {
		t.Fatal("daily cap ignored")
	}
	// Another user is unaffected.
	if d := trig.Consider(triggerObs("u2", 75, 15, 0.9, base.Add(4*time.Hour))); !d.Prompt {
		t.Fatalf("per-user state leaked: %v", d)
	}
	// Next day: budget resets.
	if d := trig.Consider(triggerObs("u1", 75, 15, 0.9, base.Add(26*time.Hour))); !d.Prompt {
		t.Fatalf("daily budget did not reset: %v", d)
	}
}

func TestTriggerQuietHoursWrapMidnight(t *testing.T) {
	p := DefaultTriggerPolicy() // 22 -> 8
	for hour, want := range map[int]bool{21: false, 22: true, 23: true, 0: true, 7: true, 8: false, 12: false} {
		if got := p.inQuietHours(hour); got != want {
			t.Errorf("inQuietHours(%d) = %v, want %v", hour, got, want)
		}
	}
	p.QuietFromHour, p.QuietToHour = 0, 0
	if p.inQuietHours(3) {
		t.Fatal("equal hours must disable the window")
	}
}

func TestBuildSensitivityProfile(t *testing.T) {
	base := time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)
	obs := []*sensing.Observation{
		triggerObs("u1", 67, 15, 0.9, base),
		triggerObs("u1", 82, 15, 0.9, base.Add(time.Hour)),
		triggerObs("u1", 52, 15, 0.9, base.Add(2*time.Hour)),
		triggerObs("other", 90, 15, 0.9, base),
	}
	where := geo.Point{Lat: 48.85, Lon: 2.35}
	reports := []*soundcity.Feedback{
		{Reporter: "u1", Where: where, Annoyance: 6, At: base.Add(2 * time.Minute)},
		{Reporter: "u1", Where: where, Annoyance: 9, At: base.Add(time.Hour + time.Minute)},
		{Reporter: "u1", Where: where, Annoyance: 1, At: base.Add(2*time.Hour + 3*time.Minute)},
		{Reporter: "u1", Where: where, Annoyance: 10, At: base.Add(9 * time.Hour)}, // unpaired (no obs nearby)
		{Reporter: "other", Where: where, Annoyance: 10, At: base},
	}
	profile, err := BuildSensitivityProfile("u1", obs, reports, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// 67 dB -> band 65 (annoyance 6); 82 -> band 80 (9); 52 -> band
	// 50 (1).
	if math.Abs(profile.Bands[65]-6) > 1e-9 || math.Abs(profile.Bands[80]-9) > 1e-9 || math.Abs(profile.Bands[50]-1) > 1e-9 {
		t.Fatalf("bands = %v", profile.Bands)
	}
	if profile.Samples[65] != 1 {
		t.Fatalf("samples = %v", profile.Samples)
	}
	// Sensitivity rises with level for this user.
	if !(profile.Bands[50] < profile.Bands[65] && profile.Bands[65] < profile.Bands[80]) {
		t.Fatal("profile not increasing with level")
	}
}

func TestBuildSensitivityProfileErrors(t *testing.T) {
	if _, err := BuildSensitivityProfile("ghost", nil, nil, time.Minute); err == nil {
		t.Fatal("no observations must fail")
	}
	base := time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC)
	obs := []*sensing.Observation{triggerObs("u1", 70, 15, 0.9, base)}
	reports := []*soundcity.Feedback{{Reporter: "u1", Where: geo.Point{Lat: 48.85, Lon: 2.35}, Annoyance: 5, At: base.Add(5 * time.Hour)}}
	if _, err := BuildSensitivityProfile("u1", obs, reports, 10*time.Minute); err == nil {
		t.Fatal("unpairable feedback must fail")
	}
}
