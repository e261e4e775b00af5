package predict

import "fmt"

// AdaptivePercentile self-tunes the percentile-histogram operating
// point: the paper fixes the percentile globally (its conservative p90),
// but the right point depends on how bursty each individual user is.
// This wrapper tracks the client's own under-prediction frequency with
// an EWMA and nudges the percentile up when slots keep arriving beyond
// the forecast (under-predictions cost energy) and back down when the
// forecast chronically over-shoots (over-predictions cost inventory).
type AdaptivePercentile struct {
	inner *PercentileHistogram

	// TargetUnderFreq is the acceptable fraction of periods with any
	// under-prediction; the controller servos the percentile around it.
	targetUnderFreq float64
	step            float64
	minQ, maxQ      float64

	underEWMA float64
	seen      int

	lastPredict float64
	hasPredict  bool
}

// NewAdaptivePercentile creates a controller starting at q0 and
// servoing the under-prediction frequency toward target (e.g. 0.15).
func NewAdaptivePercentile(q0, target float64) (*AdaptivePercentile, error) {
	if q0 <= 0 || q0 >= 1 {
		return nil, fmt.Errorf("predict: initial percentile must be in (0,1), got %v", q0)
	}
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("predict: target under-frequency must be in (0,1), got %v", target)
	}
	return &AdaptivePercentile{
		inner:           NewPercentileHistogram(q0),
		targetUnderFreq: target,
		step:            0.02,
		minQ:            0.5,
		maxQ:            0.99,
		underEWMA:       target, // start at the setpoint: no initial kick
	}, nil
}

// Name implements Predictor.
func (a *AdaptivePercentile) Name() string { return "adaptive-pctile" }

// Percentile returns the controller's current operating point.
func (a *AdaptivePercentile) Percentile() float64 { return a.inner.Percentile() }

// Predict implements Predictor.
func (a *AdaptivePercentile) Predict(p Period) Estimate {
	est := a.inner.Predict(p)
	a.lastPredict = est.Slots
	a.hasPredict = true
	return est
}

// Observe implements Predictor: besides training the histogram, it
// closes the control loop using the most recent forecast.
func (a *AdaptivePercentile) Observe(p Period, slots int) {
	if a.hasPredict {
		under := 0.0
		if float64(slots) > a.lastPredict {
			under = 1.0
		}
		const alpha = 0.1
		a.underEWMA = alpha*under + (1-alpha)*a.underEWMA
		a.seen++
		// Servo once the EWMA has some signal in it.
		if a.seen >= 10 {
			q := a.inner.Percentile()
			switch {
			case a.underEWMA > a.targetUnderFreq*1.2 && q < a.maxQ:
				q += a.step
			case a.underEWMA < a.targetUnderFreq*0.5 && q > a.minQ:
				q -= a.step
			}
			if q > a.maxQ {
				q = a.maxQ
			}
			if q < a.minQ {
				q = a.minQ
			}
			a.inner.q = q
		}
		a.hasPredict = false
	}
	a.inner.Observe(p, slots)
}

// CDF implements Distribution by delegation.
func (a *AdaptivePercentile) CDF(p Period) CDF { return a.inner.CDF(p) }

var (
	_ Predictor    = (*AdaptivePercentile)(nil)
	_ Distribution = (*AdaptivePercentile)(nil)
)
