package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/simclock"
)

// GenConfig parameterizes the synthetic population generator. The
// defaults are calibrated to published smartphone-usage studies: tens of
// short sessions per day per user, lognormal session lengths, a two-peak
// diurnal rhythm, strong user heterogeneity, and substantial (but not
// perfect) day-over-day per-user regularity.
type GenConfig struct {
	Users int   // population size; the paper used 1,738 (1,693 iPhone + 45 Windows Phone)
	Days  int   // trace span in days
	Seed  int64 // root seed; everything derives from it

	// Cross-user heterogeneity: each user's mean sessions/day is drawn
	// from a lognormal with this median and sigma.
	SessionsPerDayMedian float64
	UserSpreadSigma      float64

	// Session length distribution (lognormal, seconds), capped at
	// MaxSessionSec.
	SessionMedianSec float64
	SessionSigma     float64
	MaxSessionSec    float64

	// Regularity in [0,1]: 1 = a user's hourly activity is identical
	// every day (perfectly predictable); 0 = each day is independently
	// noisy. Drives predictor accuracy, so experiments sweep it.
	Regularity float64

	// WeekendFactor scales weekend activity (e.g. 1.15 = 15% more).
	WeekendFactor float64

	// ZipfExponent controls per-user app popularity skew.
	ZipfExponent float64

	// FracIPhone labels that fraction of users as iPhone, the rest as
	// Windows Phone (labels only; behaviour is identical, matching the
	// paper's observation that usage statistics were similar).
	FracIPhone float64
}

// DefaultGenConfig returns the population configuration used by the
// experiments: the paper's population size over four weeks.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Users:                1738,
		Days:                 28,
		Seed:                 1,
		SessionsPerDayMedian: 12,
		UserSpreadSigma:      0.7,
		SessionMedianSec:     60,
		SessionSigma:         1.1,
		MaxSessionSec:        1800,
		Regularity:           0.7,
		WeekendFactor:        1.15,
		ZipfExponent:         1.3,
		FracIPhone:           float64(1693) / float64(1738),
	}
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"SessionsPerDayMedian", c.SessionsPerDayMedian},
		{"UserSpreadSigma", c.UserSpreadSigma},
		{"SessionMedianSec", c.SessionMedianSec},
		{"SessionSigma", c.SessionSigma},
		{"MaxSessionSec", c.MaxSessionSec},
		{"Regularity", c.Regularity},
		{"WeekendFactor", c.WeekendFactor},
		{"ZipfExponent", c.ZipfExponent},
		{"FracIPhone", c.FracIPhone},
	} {
		// NaN slips through ordered range checks (every comparison is
		// false) and then wedges Poisson sampling in an endless loop, so
		// reject non-finite parameters up front.
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("trace: %s must be finite, got %v", p.name, p.v)
		}
	}
	switch {
	case c.Users <= 0:
		return fmt.Errorf("trace: Users must be positive, got %d", c.Users)
	case c.Days <= 0:
		return fmt.Errorf("trace: Days must be positive, got %d", c.Days)
	case c.Regularity < 0 || c.Regularity > 1:
		return fmt.Errorf("trace: Regularity must be in [0,1], got %v", c.Regularity)
	case c.SessionsPerDayMedian <= 0:
		return fmt.Errorf("trace: SessionsPerDayMedian must be positive, got %v", c.SessionsPerDayMedian)
	case c.SessionMedianSec <= 0 || c.MaxSessionSec < c.SessionMedianSec:
		return fmt.Errorf("trace: bad session length parameters (%v, max %v)", c.SessionMedianSec, c.MaxSessionSec)
	case c.FracIPhone < 0 || c.FracIPhone > 1:
		return fmt.Errorf("trace: FracIPhone must be in [0,1], got %v", c.FracIPhone)
	}
	return nil
}

// baseDiurnalWeights is the population-level hour-of-day activity shape:
// a morning ramp, a lunchtime bump, and a strong evening peak, with a
// deep overnight trough.
var baseDiurnalWeights = [24]float64{
	0.15, 0.08, 0.05, 0.04, 0.05, 0.10, // 00-05
	0.35, 0.70, 0.95, 0.90, 0.85, 1.00, // 06-11
	1.10, 0.95, 0.90, 0.90, 0.95, 1.05, // 12-17
	1.25, 1.45, 1.55, 1.40, 1.00, 0.50, // 18-23
}

// Generate synthesizes a population per the configuration. The result
// is deterministic for a given configuration (including seed), and is
// exactly a materialized Stream: per-user derivation is lazy and
// order-free, so Generate(cfg).Users[id] == Stream.UserAt(id) byte for
// byte (see stream.go).
func Generate(cfg GenConfig) (*Population, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	pop := &Population{
		Users: make([]*User, cfg.Users),
		Span:  s.Span(),
	}
	for i := 0; i < cfg.Users; i++ {
		pop.Users[i] = s.UserAt(i)
	}
	return pop, nil
}

// generateUser draws user id's trace from g, whose stream is already
// seeded as the user's own. Sessions are drawn, sorted and de-overlapped
// in g's buffer; the user gets an exact-size copy.
func generateUser(cfg GenConfig, cat *Catalog, g *userGen, id int) *User {
	r := g.r
	u := &User{ID: id}
	if float64(id) < cfg.FracIPhone*float64(cfg.Users) {
		u.Platform = PlatformIPhone
	} else {
		u.Platform = PlatformWindowsPhone
	}

	// Per-user mean activity and a personal diurnal profile: the base
	// shape, phase-shifted by up to ±2 h and re-weighted per hour.
	meanPerDay := r.LogNormalMeanMedian(cfg.SessionsPerDayMedian, cfg.UserSpreadSigma)
	shift := r.Intn(5) - 2
	var weights [24]float64
	var wsum float64
	for h := 0; h < 24; h++ {
		w := baseDiurnalWeights[((h+shift)%24+24)%24] * r.Jitter(1, 0.3)
		weights[h] = w
		wsum += w
	}
	var hourlyRate [24]float64 // expected sessions in each hour of a typical day
	for h := 0; h < 24; h++ {
		hourlyRate[h] = meanPerDay * weights[h] / wsum
	}

	// Per-user app preference: a permutation of the catalog sampled by
	// Zipf rank, so each user has their own top apps.
	perm := permInto(r, g.perm)
	zipf := g.zipf

	noiseSigma := (1 - cfg.Regularity) * 0.8

	sessions := g.sessions[:0]
	for day := 0; day < cfg.Days; day++ {
		dayStart := simclock.Time(day) * simclock.Day
		dayMult := 1.0
		if dayStart.Weekend() {
			dayMult = cfg.WeekendFactor
		}
		// Day-level noise shared across all hours of the day, plus
		// hour-level noise; both shrink as Regularity -> 1.
		dayNoise := math.Exp(r.NormFloat64()*noiseSigma - noiseSigma*noiseSigma/2)
		for h := 0; h < 24; h++ {
			hourNoise := math.Exp(r.NormFloat64()*noiseSigma*0.5 - noiseSigma*noiseSigma/8)
			lambda := hourlyRate[h] * dayMult * dayNoise * hourNoise
			n := r.Poisson(lambda)
			for k := 0; k < n; k++ {
				start := dayStart + simclock.Time(h)*simclock.Hour +
					simclock.Time(r.Int63n(int64(simclock.Hour)))
				durSec := r.LogNormalMeanMedian(cfg.SessionMedianSec, cfg.SessionSigma)
				if durSec > cfg.MaxSessionSec {
					durSec = cfg.MaxSessionSec
				}
				if durSec < 1 {
					durSec = 1
				}
				app := AppID(perm[int(zipf.Uint64())])
				sessions = append(sessions, Session{
					App:      app,
					Start:    start,
					Duration: time.Duration(durSec * float64(time.Second)),
				})
			}
		}
	}

	// slices.SortFunc runs sort.Slice's pdqsort step for step (both are
	// generated from one template), so ties land where they always did.
	slices.SortFunc(sessions, func(a, b Session) int { return cmp.Compare(a.Start, b.Start) })
	g.sessions = sessions
	if kept := resolveOverlaps(sessions, simclock.Time(cfg.Days)*simclock.Day); len(kept) > 0 {
		u.Sessions = make([]Session, len(kept))
		copy(u.Sessions, kept)
	}
	return u
}

// permInto fills m with a random permutation of [0, len(m)) by
// rand.(*Rand).Perm's own loop — the same draws, the same result as
// r.Perm(len(m)) — into a buffer the caller keeps.
func permInto(r *simclock.Rand, m []int) []int {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// resolveOverlaps enforces the one-foreground-app-at-a-time invariant by
// pushing overlapping sessions later (with a 1 s gap); sessions pushed
// past the trace span are dropped.
func resolveOverlaps(sessions []Session, span simclock.Time) []Session {
	out := sessions[:0]
	var prevEnd simclock.Time = -1
	for _, s := range sessions {
		if s.Start <= prevEnd {
			s.Start = prevEnd + simclock.Second
		}
		if s.Start.Add(s.Duration) > span {
			continue
		}
		out = append(out, s)
		prevEnd = s.End()
	}
	return out
}
