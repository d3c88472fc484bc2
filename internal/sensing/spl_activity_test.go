package sensing

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testProfile() MicProfile {
	return MicProfile{
		QuietPeakDB:   30,
		QuietSigmaDB:  4.5,
		ActiveBumpDB:  65,
		ActiveSigmaDB: 8,
		QuietWeight:   0.78,
		BiasDB:        5,
	}
}

func TestSampleRawSPLInRangeProperty(t *testing.T) {
	f := func(seed int64, shift uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testProfile()
		v := p.SampleRawSPL(rng, float64(shift%30))
		return v >= 0 && v <= 130
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleRawSPLBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := testProfile()
	nearQuiet, nearActive := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := p.SampleRawSPL(rng, 0)
		if v > p.QuietPeakDB-9 && v < p.QuietPeakDB+9 {
			nearQuiet++
		}
		if v > p.ActiveBumpDB-16 && v < p.ActiveBumpDB+16 {
			nearActive++
		}
	}
	if float64(nearQuiet)/n < 0.5 {
		t.Fatalf("quiet component share %.3f, want > 0.5", float64(nearQuiet)/n)
	}
	if float64(nearActive)/n < 0.1 {
		t.Fatalf("active component share %.3f, want > 0.1", float64(nearActive)/n)
	}
}

func TestTrueSPLRemovesBias(t *testing.T) {
	p := testProfile()
	if got := p.trueSPL(40); got != 35 {
		t.Fatalf("TrueSPL(40) = %v, want 35", got)
	}
	// Clamped below zero.
	if got := p.trueSPL(2); got != 0 {
		t.Fatalf("TrueSPL(2) = %v, want 0 (clamped)", got)
	}
}

func TestActivityStringParseRoundTrip(t *testing.T) {
	for _, a := range Activities() {
		got, err := ParseActivity(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseActivity(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseActivity("teleporting"); err == nil {
		t.Fatal("unknown activity must fail")
	}
}

func TestActivityMoving(t *testing.T) {
	moving := map[Activity]bool{
		ActivityFoot: true, ActivityBicycle: true, ActivityVehicle: true,
	}
	for _, a := range Activities() {
		if a.Moving() != moving[a] {
			t.Fatalf("%v.Moving() = %v", a, a.Moving())
		}
	}
}

func TestActivityModelShapeTargets(t *testing.T) {
	// The default model must reproduce the Figure 21 proportions:
	// ~70% still, <10% moving, ~20% below the confidence cut.
	rng := rand.New(rand.NewSource(5))
	m := DefaultActivityModel()
	const n = 50000
	still, moving, unqualified := 0, 0, 0
	for i := 0; i < n; i++ {
		act, conf := m.Sample(rng)
		if conf < 0 || conf > 1 {
			t.Fatalf("confidence %v out of [0,1]", conf)
		}
		if act == ActivityUndefined || act == ActivityUnknown {
			if Qualified(conf) {
				t.Fatalf("%v sampled with qualifying confidence %.2f", act, conf)
			}
		}
		if !Qualified(conf) || act == ActivityUndefined || act == ActivityUnknown {
			unqualified++
		}
		if act == ActivityStill {
			still++
		}
		if act.Moving() && Qualified(conf) {
			moving++
		}
	}
	stillShare := float64(still) / n
	movingShare := float64(moving) / n
	unqualifiedShare := float64(unqualified) / n
	if stillShare < 0.62 || stillShare > 0.78 {
		t.Fatalf("still share = %.3f, want ~0.70", stillShare)
	}
	if movingShare > 0.10 {
		t.Fatalf("moving share = %.3f, want < 0.10", movingShare)
	}
	if unqualifiedShare < 0.14 || unqualifiedShare > 0.28 {
		t.Fatalf("unqualified share = %.3f, want ~0.20", unqualifiedShare)
	}
}

func TestQualified(t *testing.T) {
	if Qualified(0.79) {
		t.Fatal("0.79 must be below the cut")
	}
	if !Qualified(0.8) {
		t.Fatal("0.8 must pass the cut")
	}
}

// trueSPL converts a raw measurement back to a calibrated estimate by
// removing the model bias.
func (p MicProfile) trueSPL(raw float64) float64 {
	return clampSPL(raw - p.BiasDB)
}
