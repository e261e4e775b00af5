// Package predict implements the client-side models that forecast how
// many ad slots a device will have in an upcoming prefetch period.
//
// The forecast drives the whole architecture: the ad server sells
// *predicted* slots in exchange auctions before they exist. The paper's
// key observations are that (1) per-user app usage is self-similar day
// over day, so simple time-of-day-conditioned models work, and (2) the
// two error directions cost very differently — an unfilled prediction
// (over-prediction) merely returns inventory, while an unpredicted slot
// (under-prediction) forces an energy-expensive on-demand fetch — so the
// production model predicts a *conservative high percentile* of the
// historical distribution rather than the mean.
package predict

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/simclock"
)

// Period describes one prefetch window for context-aware predictors.
type Period struct {
	Index   int  // absolute period number since trace start
	OfDay   int  // period number within its day, in [0, PeriodsPerDay)
	Weekend bool // whether the period falls on a weekend day
}

// PeriodOf computes the Period of instant t under the given window size.
// Window sizes that don't divide a day evenly still work; OfDay then
// cycles at day boundaries.
func PeriodOf(t simclock.Time, window time.Duration) Period {
	w := simclock.Time(window)
	idx := int(t / w)
	perDay := int(simclock.Day / w)
	if perDay < 1 {
		perDay = 1
	}
	return Period{
		Index:   idx,
		OfDay:   idx % perDay,
		Weekend: t.Weekend(),
	}
}

// PeriodsPerDay returns how many windows fit in a day (minimum 1).
func PeriodsPerDay(window time.Duration) int {
	n := int(simclock.Day / simclock.Time(window))
	if n < 1 {
		n = 1
	}
	return n
}

// Estimate is a slot forecast for one upcoming period. It separates the
// two quantities the architecture needs, because they are used with
// opposite biases: Slots is the *conservative* cache-sizing estimate
// (over-predicting is cheap, under-predicting costs energy), while Mean
// is the *unbiased* expected supply the server may safely sell against
// (over-selling causes SLA violations).
type Estimate struct {
	// Slots is the cache-sizing estimate of how many slots will open.
	Slots float64

	// Mean is the expected number of slots (admission-control input).
	Mean float64

	// Var is the estimated variance of the slot count (0 when the
	// predictor cannot estimate it; admission control then assumes
	// Poisson-like dispersion). Real usage is over-dispersed — day-level
	// activity noise is multiplicative — so selling against a Poisson
	// variance oversells on quiet days.
	Var float64

	// NoShowProb estimates P(zero slots in the period): the probability
	// that an ad assigned solely to this client for this period is never
	// displayed. This feeds the overbooking model.
	NoShowProb float64
}

// Distribution is implemented by predictors that expose the full
// per-period slot distribution, not just point estimates. The
// overbooking planner uses it for rank-aware replica placement: an ad
// at position r in a client's cache only displays if the client
// produces more than r slots, so its no-show probability is
// P(slots <= r), not P(slots == 0).
type Distribution interface {
	// CDF returns the period's slot-count distribution.
	CDF(p Period) CDF
}

// CDF is one period's slot-count distribution with the period's context
// already resolved, so a caller asking at many k (the planner asks once
// per replica it places) pays for the lookup once. It reads the
// predictor's own state: it is valid until the predictor next observes.
type CDF struct {
	// sorted holds the observations in ascending order; none means no
	// history, a certain shortfall at every k.
	sorted []int

	// smoothed Laplace-smooths the empirical fraction (the histogram's
	// estimate never touches 0 or 1); without it the fraction is exact.
	smoothed bool
}

// ExactCDF is the exact distribution of the given observations, which
// must be in ascending order: one observation is a known count.
func ExactCDF(sorted []int) CDF { return CDF{sorted: sorted} }

// ProbAtMost returns the estimated P(slot count <= k).
func (d CDF) ProbAtMost(k int) float64 {
	if len(d.sorted) == 0 {
		return 1
	}
	n, _ := slices.BinarySearch(d.sorted, k+1) // observations <= k
	if d.smoothed {
		return (float64(n) + 1) / (float64(len(d.sorted)) + 2)
	}
	return float64(n) / float64(len(d.sorted))
}

// Predictor forecasts per-period slot counts. Implementations are
// single-client and single-goroutine: the simulator walks each client's
// series in period order, calling Predict for the period about to start
// and Observe once it has elapsed.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Predict forecasts the period before it begins.
	Predict(p Period) Estimate
	// Observe records the true slot count after the period elapses.
	Observe(p Period, slots int)
}

// ---------------------------------------------------------------------
// LastPeriod: naive persistence forecast.

// LastPeriod predicts that the next period repeats the previous one.
type LastPeriod struct {
	last      float64
	seen      int
	zeroCount int
}

// NewLastPeriod returns a persistence predictor.
func NewLastPeriod() *LastPeriod { return &LastPeriod{} }

// Name implements Predictor.
func (l *LastPeriod) Name() string { return "last-period" }

// Predict implements Predictor.
func (l *LastPeriod) Predict(Period) Estimate {
	return Estimate{Slots: l.last, Mean: l.last, NoShowProb: zeroFrac(l.zeroCount, l.seen)}
}

// Observe implements Predictor.
func (l *LastPeriod) Observe(_ Period, slots int) {
	l.last = float64(slots)
	l.seen++
	if slots == 0 {
		l.zeroCount++
	}
}

// ---------------------------------------------------------------------
// MovingAverage: mean of the last w observations.

// MovingAverage predicts the mean of a sliding window of recent periods.
type MovingAverage struct {
	window    int
	buf       []int
	next      int
	filled    int
	seen      int
	zeroCount int
}

// NewMovingAverage returns a sliding-window mean predictor.
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		window = 1
	}
	return &MovingAverage{window: window, buf: make([]int, window)}
}

// Name implements Predictor.
func (m *MovingAverage) Name() string { return fmt.Sprintf("moving-avg-%d", m.window) }

// Predict implements Predictor.
func (m *MovingAverage) Predict(Period) Estimate {
	if m.filled == 0 {
		return Estimate{NoShowProb: 1}
	}
	sum := 0
	for i := 0; i < m.filled; i++ {
		sum += m.buf[i]
	}
	avg := float64(sum) / float64(m.filled)
	return Estimate{
		Slots:      avg,
		Mean:       avg,
		NoShowProb: zeroFrac(m.zeroCount, m.seen),
	}
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(_ Period, slots int) {
	m.buf[m.next] = slots
	m.next = (m.next + 1) % m.window
	if m.filled < m.window {
		m.filled++
	}
	m.seen++
	if slots == 0 {
		m.zeroCount++
	}
}

// ---------------------------------------------------------------------
// EWMA: exponentially weighted moving average.

// EWMA predicts an exponentially weighted average of past periods.
type EWMA struct {
	alpha     float64
	value     float64
	seen      int
	zeroCount int
}

// NewEWMA returns an EWMA predictor with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EWMA{alpha: alpha}
}

// Name implements Predictor.
func (e *EWMA) Name() string { return fmt.Sprintf("ewma-%.2g", e.alpha) }

// Predict implements Predictor.
func (e *EWMA) Predict(Period) Estimate {
	if e.seen == 0 {
		return Estimate{NoShowProb: 1}
	}
	return Estimate{Slots: e.value, Mean: e.value, NoShowProb: zeroFrac(e.zeroCount, e.seen)}
}

// Observe implements Predictor.
func (e *EWMA) Observe(_ Period, slots int) {
	if e.seen == 0 {
		e.value = float64(slots)
	} else {
		e.value = e.alpha*float64(slots) + (1-e.alpha)*e.value
	}
	e.seen++
	if slots == 0 {
		e.zeroCount++
	}
}

// ---------------------------------------------------------------------
// PercentileHistogram: the paper's model. Per time-of-day (and
// weekday/weekend) context it keeps the empirical distribution of slot
// counts and predicts a configurable percentile of it.

// PercentileHistogram conditions on (period-of-day, weekend) and
// predicts the q-percentile of the slot counts historically observed in
// that context. With q well above the median it over-predicts by design:
// spare predicted inventory is cheap, unpredicted slots are not.
//
// Each context keeps a bounded sliding window of the most recent
// observations (DefaultHistoryWindow), so a long-lived deployment both
// stays O(1) memory per client and tracks drifting usage instead of
// averaging over stale months.
type PercentileHistogram struct {
	q        float64
	window   int
	contexts map[contextKey]*contextHist
}

// DefaultHistoryWindow is how many recent observations each context
// retains: roughly two months of daily periods.
const DefaultHistoryWindow = 60

type contextKey struct {
	ofDay   int
	weekend bool
}

// contextHist is a ring of the most recent observations plus a lazily
// rebuilt sorted view for quantiles and the empirical CDF.
type contextHist struct {
	ring   []int // chronological, up to the window size
	next   int   // ring insertion point once full
	full   bool
	sorted []int // rebuilt from ring when dirty
	zeros  int   // zeros within the current window
	dirty  bool
}

func (c *contextHist) observe(v int, window int) {
	if !c.full && len(c.ring) < window {
		c.ring = append(c.ring, v)
		if len(c.ring) == window {
			c.full = true
		}
	} else {
		c.full = true
		c.ring[c.next] = v
		c.next = (c.next + 1) % len(c.ring)
	}
	c.dirty = true
}

func (c *contextHist) view() []int {
	if c.dirty || c.sorted == nil {
		c.sorted = append(c.sorted[:0], c.ring...)
		sort.Ints(c.sorted)
		c.zeros = sort.SearchInts(c.sorted, 1)
		c.dirty = false
	}
	return c.sorted
}

// NewPercentileHistogram returns the paper's predictor at percentile q
// in (0,1); the evaluation's default operating point is 0.9.
func NewPercentileHistogram(q float64) *PercentileHistogram {
	if q <= 0 || q >= 1 {
		q = 0.9
	}
	return &PercentileHistogram{
		q:        q,
		window:   DefaultHistoryWindow,
		contexts: make(map[contextKey]*contextHist),
	}
}

// Name implements Predictor.
func (ph *PercentileHistogram) Name() string { return fmt.Sprintf("pctile-hist-%.2g", ph.q) }

// Percentile returns the configured percentile.
func (ph *PercentileHistogram) Percentile() float64 { return ph.q }

// Predict implements Predictor.
func (ph *PercentileHistogram) Predict(p Period) Estimate {
	c := ph.lookup(p)
	if c == nil {
		return Estimate{NoShowProb: 1}
	}
	counts := c.view()
	idx := int(ph.q * float64(len(counts)))
	if idx >= len(counts) {
		idx = len(counts) - 1
	}
	sum := 0
	for _, v := range counts {
		sum += v
	}
	mean := float64(sum) / float64(len(counts))
	varSum := 0.0
	for _, v := range counts {
		d := float64(v) - mean
		varSum += d * d
	}
	variance := 0.0
	if n := len(counts); n > 1 {
		variance = varSum / float64(n-1)
	}
	return Estimate{
		Slots:      float64(counts[idx]),
		Mean:       mean,
		Var:        variance,
		NoShowProb: float64(c.zeros) / float64(len(counts)),
	}
}

// lookup finds the period's context, falling back to the opposite day
// type; nil means no history at all.
func (ph *PercentileHistogram) lookup(p Period) *contextHist {
	c, ok := ph.contexts[contextKey{p.OfDay, p.Weekend}]
	if ok && len(c.ring) > 0 {
		return c
	}
	c, ok = ph.contexts[contextKey{p.OfDay, !p.Weekend}]
	if ok && len(c.ring) > 0 {
		return c
	}
	return nil
}

// CDF implements Distribution: the empirical distribution of the
// period's context (with the same weekend fallback as Predict).
// Unknown contexts are a certain shortfall. The estimate is
// Laplace-smoothed: with only a few days of history an empirical 0
// would make the overbooking planner certain a replica displays and
// skip replication entirely, so it never touches 0 or 1.
func (ph *PercentileHistogram) CDF(p Period) CDF {
	c := ph.lookup(p)
	if c == nil {
		return CDF{}
	}
	return CDF{sorted: c.view(), smoothed: true}
}

// Observe implements Predictor.
func (ph *PercentileHistogram) Observe(p Period, slots int) {
	key := contextKey{p.OfDay, p.Weekend}
	c, ok := ph.contexts[key]
	if !ok {
		c = &contextHist{}
		ph.contexts[key] = c
	}
	c.observe(slots, ph.window)
}

// ---------------------------------------------------------------------
// TimeOfDayMean: context-conditioned mean (the natural middle ground
// between EWMA and the percentile model).

// TimeOfDayMean predicts the historical mean slot count of the same
// period-of-day.
type TimeOfDayMean struct {
	sum   map[int]float64
	n     map[int]int
	zeros map[int]int
}

// NewTimeOfDayMean returns a time-of-day-conditioned mean predictor.
func NewTimeOfDayMean() *TimeOfDayMean {
	return &TimeOfDayMean{sum: map[int]float64{}, n: map[int]int{}, zeros: map[int]int{}}
}

// Name implements Predictor.
func (t *TimeOfDayMean) Name() string { return "tod-mean" }

// Predict implements Predictor.
func (t *TimeOfDayMean) Predict(p Period) Estimate {
	n := t.n[p.OfDay]
	if n == 0 {
		return Estimate{NoShowProb: 1}
	}
	avg := t.sum[p.OfDay] / float64(n)
	return Estimate{
		Slots:      avg,
		Mean:       avg,
		NoShowProb: float64(t.zeros[p.OfDay]) / float64(n),
	}
}

// Observe implements Predictor.
func (t *TimeOfDayMean) Observe(p Period, slots int) {
	t.sum[p.OfDay] += float64(slots)
	t.n[p.OfDay]++
	if slots == 0 {
		t.zeros[p.OfDay]++
	}
}

// ---------------------------------------------------------------------
// Markov: first-order chain over bucketed slot counts.

// markovBuckets discretizes slot counts into activity levels.
var markovBuckets = []int{0, 1, 2, 4, 8, 16, 32}

func bucketOf(slots int) int {
	for i := len(markovBuckets) - 1; i >= 0; i-- {
		if slots >= markovBuckets[i] {
			return i
		}
	}
	return 0
}

// Markov predicts from a first-order transition matrix over bucketed
// slot counts; the estimate is the expected value of the observed counts
// reachable from the current bucket.
type Markov struct {
	// trans[i][j] counts transitions bucket i -> bucket j.
	trans [][]int
	// sums[i][j] accumulates the raw counts observed when landing in j
	// from i, so predictions are expectations of raw values, not bucket
	// labels.
	sums [][]float64
	// zeroTo[i] counts transitions from i into a zero-slot period.
	zeroTo  []int
	current int
	seen    int
}

// NewMarkov returns an empty first-order Markov predictor.
func NewMarkov() *Markov {
	n := len(markovBuckets)
	m := &Markov{
		trans:  make([][]int, n),
		sums:   make([][]float64, n),
		zeroTo: make([]int, n),
	}
	for i := 0; i < n; i++ {
		m.trans[i] = make([]int, n)
		m.sums[i] = make([]float64, n)
	}
	return m
}

// Name implements Predictor.
func (m *Markov) Name() string { return "markov" }

// Predict implements Predictor.
func (m *Markov) Predict(Period) Estimate {
	if m.seen == 0 {
		return Estimate{NoShowProb: 1}
	}
	row := m.trans[m.current]
	total := 0
	var sum float64
	for j, n := range row {
		total += n
		sum += m.sums[m.current][j]
	}
	if total == 0 {
		return Estimate{NoShowProb: 1}
	}
	avg := sum / float64(total)
	return Estimate{
		Slots:      avg,
		Mean:       avg,
		NoShowProb: float64(m.zeroTo[m.current]) / float64(total),
	}
}

// Observe implements Predictor.
func (m *Markov) Observe(_ Period, slots int) {
	b := bucketOf(slots)
	if m.seen > 0 {
		m.trans[m.current][b]++
		m.sums[m.current][b] += float64(slots)
		if slots == 0 {
			m.zeroTo[m.current]++
		}
	}
	m.current = b
	m.seen++
}

// ---------------------------------------------------------------------
// Oracle: perfect foresight (the evaluation's upper bound).

// Oracle knows the whole series in advance. It is constructed per client
// from the trace and indexed by absolute period.
type Oracle struct {
	series []int
}

// NewOracle wraps a known per-period slot series.
func NewOracle(series []int) *Oracle {
	cp := make([]int, len(series))
	copy(cp, series)
	return &Oracle{series: cp}
}

// Name implements Predictor.
func (o *Oracle) Name() string { return "oracle" }

// Predict implements Predictor.
func (o *Oracle) Predict(p Period) Estimate {
	if p.Index < 0 || p.Index >= len(o.series) {
		return Estimate{NoShowProb: 1}
	}
	s := o.series[p.Index]
	noShow := 0.0
	if s == 0 {
		noShow = 1.0
	}
	return Estimate{Slots: float64(s), Mean: float64(s), NoShowProb: noShow}
}

// CDF implements Distribution with certainty: the period's known count,
// or a certain shortfall outside the series.
func (o *Oracle) CDF(p Period) CDF {
	if p.Index < 0 || p.Index >= len(o.series) {
		return CDF{}
	}
	return ExactCDF(o.series[p.Index : p.Index+1])
}

// Observe implements Predictor (no-op; the oracle already knows).
func (o *Oracle) Observe(Period, int) {}

func zeroFrac(zeros, seen int) float64 {
	if seen == 0 {
		return 1
	}
	return float64(zeros) / float64(seen)
}
