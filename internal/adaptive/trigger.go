package adaptive

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/soundcity"
)

// Feedback triggering (the paper's future work, Section 8: "the
// feedback mechanism should be easily accessible and yet not
// invasive. Also, it might be beneficial to trigger it at some proper
// times, to be determined by the available quantitative information
// ... user feedback at locations where the noise is accurately
// measured would be helpful to build an individual profile of
// sensitivity to noise").
//
// FeedbackTrigger decides, per incoming observation, whether to
// prompt the contributing user for qualitative feedback. The policy
// prompts only when the quantitative measurement is worth anchoring a
// perception to (well localized, notable level, qualified context)
// and stays non-invasive (cooldown, daily cap, quiet hours).

// TriggerPolicy tunes the feedback prompt decision.
type TriggerPolicy struct {
	// MaxAccuracyM requires the fix be at least this accurate — the
	// paper's "locations where the noise is accurately measured".
	MaxAccuracyM float64
	// MinSPL prompts only on notable noise.
	MinSPL float64
	// RequireQualifiedActivity skips observations whose activity
	// failed the recognizer confidence cut.
	RequireQualifiedActivity bool
	// Cooldown between prompts to one user.
	Cooldown time.Duration
	// MaxPerDay caps prompts per user per calendar day.
	MaxPerDay int
	// QuietFromHour/QuietToHour suppress prompts overnight
	// (e.g. 22 -> 8). Equal values disable the window.
	QuietFromHour, QuietToHour int
}

// DefaultTriggerPolicy returns a conservative, non-invasive policy.
func DefaultTriggerPolicy() TriggerPolicy {
	return TriggerPolicy{
		MaxAccuracyM:             30,
		MinSPL:                   65,
		RequireQualifiedActivity: true,
		Cooldown:                 4 * time.Hour,
		MaxPerDay:                3,
		QuietFromHour:            22,
		QuietToHour:              8,
	}
}

// Validate checks policy invariants.
func (p TriggerPolicy) Validate() error {
	if p.MaxAccuracyM <= 0 {
		return errors.New("adaptive: trigger MaxAccuracyM must be positive")
	}
	if p.MaxPerDay < 1 {
		return errors.New("adaptive: trigger MaxPerDay must be >= 1")
	}
	if p.QuietFromHour < 0 || p.QuietFromHour > 23 || p.QuietToHour < 0 || p.QuietToHour > 23 {
		return errors.New("adaptive: quiet hours out of range")
	}
	return nil
}

// inQuietHours reports whether the hour falls in the suppression
// window (which may wrap midnight).
func (p TriggerPolicy) inQuietHours(hour int) bool {
	if p.QuietFromHour == p.QuietToHour {
		return false
	}
	if p.QuietFromHour < p.QuietToHour {
		return hour >= p.QuietFromHour && hour < p.QuietToHour
	}
	return hour >= p.QuietFromHour || hour < p.QuietToHour
}

// FeedbackTrigger applies a TriggerPolicy across users. Safe for
// concurrent use.
type FeedbackTrigger struct {
	policy TriggerPolicy

	mu    sync.Mutex
	state map[string]*userTriggerState
}

type userTriggerState struct {
	lastPrompt time.Time
	day        string
	dayCount   int
}

// NewFeedbackTrigger builds a trigger.
func NewFeedbackTrigger(policy TriggerPolicy) (*FeedbackTrigger, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &FeedbackTrigger{
		policy: policy,
		state:  make(map[string]*userTriggerState),
	}, nil
}

// Decision explains a trigger outcome.
type Decision struct {
	Prompt bool   `json:"prompt"`
	Reason string `json:"reason"`
}

// Consider decides whether to prompt the observation's user for
// feedback now; a true decision records the prompt (cooldown and
// daily budget are consumed).
func (t *FeedbackTrigger) Consider(o *sensing.Observation) Decision {
	if o == nil {
		return Decision{Reason: "no observation"}
	}
	p := t.policy
	if o.Loc == nil {
		return Decision{Reason: "not localized"}
	}
	if o.Loc.AccuracyM > p.MaxAccuracyM {
		return Decision{Reason: fmt.Sprintf("location too coarse (%.0f m > %.0f m)", o.Loc.AccuracyM, p.MaxAccuracyM)}
	}
	if o.SPL < p.MinSPL {
		return Decision{Reason: fmt.Sprintf("level unremarkable (%.0f dB < %.0f dB)", o.SPL, p.MinSPL)}
	}
	if p.RequireQualifiedActivity && !sensing.Qualified(o.ActivityConfidence) {
		return Decision{Reason: "activity unqualified"}
	}
	if p.inQuietHours(o.SensedAt.Hour()) {
		return Decision{Reason: "quiet hours"}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.state[o.UserID]
	if !ok {
		st = &userTriggerState{}
		t.state[o.UserID] = st
	}
	if !st.lastPrompt.IsZero() && o.SensedAt.Sub(st.lastPrompt) < p.Cooldown {
		return Decision{Reason: "cooldown"}
	}
	day := o.SensedAt.Format("2006-01-02")
	if st.day != day {
		st.day = day
		st.dayCount = 0
	}
	if st.dayCount >= p.MaxPerDay {
		return Decision{Reason: "daily budget exhausted"}
	}
	st.lastPrompt = o.SensedAt
	st.dayCount++
	return Decision{Prompt: true, Reason: "accurate notable measurement"}
}

// SensitivityProfile is a user's noise-sensitivity curve built from
// (measured SPL, reported annoyance) pairs — the individual profile
// the paper's future work aims for.
type SensitivityProfile struct {
	UserID string `json:"userId"`
	// Bands maps dB(A) band lower edges (50, 55, ... in 5 dB steps)
	// to mean annoyance.
	Bands map[int]float64 `json:"bands"`
	// Samples per band.
	Samples map[int]int `json:"samples"`
}

// sensitivityBand buckets a level into 5 dB bands.
func sensitivityBand(spl float64) int {
	b := int(spl/5) * 5
	if b < 0 {
		b = 0
	}
	return b
}

// BuildSensitivityProfile pairs each feedback report with the user's
// measured level at (approximately) the report time and aggregates
// mean annoyance per 5 dB band. window bounds the pairing distance in
// time.
func BuildSensitivityProfile(userID string, obs []*sensing.Observation, reports []*soundcity.Feedback, window time.Duration) (*SensitivityProfile, error) {
	if window <= 0 {
		window = 10 * time.Minute
	}
	own := make([]*sensing.Observation, 0)
	for _, o := range obs {
		if o.UserID == userID {
			own = append(own, o)
		}
	}
	if len(own) == 0 {
		return nil, fmt.Errorf("adaptive: no observations for user %q", userID)
	}
	sort.Slice(own, func(i, j int) bool { return own[i].SensedAt.Before(own[j].SensedAt) })

	sums := make(map[int]float64)
	counts := make(map[int]int)
	paired := 0
	for _, f := range reports {
		if f.Reporter != userID {
			continue
		}
		// Nearest own observation in time.
		idx := sort.Search(len(own), func(i int) bool { return !own[i].SensedAt.Before(f.At) })
		best := -1
		bestGap := window + 1
		for _, cand := range []int{idx - 1, idx} {
			if cand < 0 || cand >= len(own) {
				continue
			}
			gap := f.At.Sub(own[cand].SensedAt)
			if gap < 0 {
				gap = -gap
			}
			if gap <= window && gap < bestGap {
				best = cand
				bestGap = gap
			}
		}
		if best < 0 {
			continue
		}
		band := sensitivityBand(own[best].SPL)
		sums[band] += float64(f.Annoyance)
		counts[band]++
		paired++
	}
	if paired == 0 {
		return nil, fmt.Errorf("adaptive: no feedback of %q pairs with a measurement", userID)
	}
	profile := &SensitivityProfile{
		UserID:  userID,
		Bands:   make(map[int]float64, len(sums)),
		Samples: counts,
	}
	for band, sum := range sums {
		profile.Bands[band] = sum / float64(counts[band])
	}
	return profile, nil
}
