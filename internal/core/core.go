// Package core holds the configuration of the paper's prefetching ad
// system: the delivery architecture (Mode), when bundles download
// (Delivery), the server policy, and the one per-mode predictor factory.
// It holds no slot or period logic: both trace-replay drivers assemble
// the system from it, sim.Run over an adserver.Server and a
// client.Device per user in process, sim.RunTransportStream over the
// wire.
//
// The four delivery architectures compared in the evaluation:
//
//   - ModeOnDemand: the status quo — every slot is sold and fetched at
//     display time.
//   - ModeNaiveBulk: prefetch a fixed K ads per client per period with
//     no prediction and no replication.
//   - ModePredictive: the paper's system — percentile prediction,
//     admission control, overbooked replication.
//   - ModeOracle: perfect foresight upper bound.
package core

import (
	"fmt"

	"repro/internal/adserver"
	"repro/internal/predict"
)

// Mode selects the delivery architecture.
type Mode int

const (
	ModeOnDemand Mode = iota
	ModeNaiveBulk
	ModePredictive
	ModeOracle
)

// String returns the mode's experiment label.
func (m Mode) String() string {
	switch m {
	case ModeOnDemand:
		return "on-demand"
	case ModeNaiveBulk:
		return "naive-bulk"
	case ModePredictive:
		return "predictive"
	case ModeOracle:
		return "oracle"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String. It also accepts the short
// names "ondemand" and "naive".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ondemand":
		return ModeOnDemand, nil
	case "naive":
		return ModeNaiveBulk, nil
	}
	for _, m := range []Mode{ModeOnDemand, ModeNaiveBulk, ModePredictive, ModeOracle} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want ondemand|naive|predictive|oracle)", s)
}

// Delivery selects when prefetch bundles are downloaded.
type Delivery int

const (
	// DeliverScheduled downloads each bundle at the period boundary,
	// waking the radio once per period.
	DeliverScheduled Delivery = iota
	// DeliverPiggyback defers the download to the client's next ad slot,
	// when the radio is already warm from app traffic. Saves the
	// periodic wake at the cost of serving the very first ads of a
	// period from a just-fetched bundle.
	DeliverPiggyback
)

// String returns the policy's experiment label.
func (d Delivery) String() string {
	if d == DeliverPiggyback {
		return "piggyback"
	}
	return "scheduled"
}

// Config selects the delivery architecture and its policies.
type Config struct {
	Mode     Mode
	Delivery Delivery

	// Server carries the period length, deadlines, latencies and the
	// overbooking policy. Server.Overbook.CacheCap is also the size of
	// each device's ad cache: the planner never places more replicas on
	// a client than its device can hold.
	Server adserver.Config

	// Percentile is the percentile-histogram operating point for
	// ModePredictive.
	Percentile float64

	// AdaptivePercentile replaces the fixed percentile with the
	// self-tuning controller (predict.AdaptivePercentile), which servos
	// each client's under-prediction frequency toward 15%.
	AdaptivePercentile bool

	// NaiveK is the fixed per-client bundle size for ModeNaiveBulk.
	NaiveK int

	// NoRescue disables the fallback rescue path (serving open sold
	// impressions on cache misses); used by ablation experiments to
	// isolate what replication alone buys.
	NoRescue bool
}

// DefaultConfig returns the evaluation operating point for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:       mode,
		Delivery:   DeliverScheduled,
		Server:     adserver.DefaultConfig(),
		Percentile: 0.9,
		NaiveK:     4,
	}
	switch mode {
	case ModeNaiveBulk:
		// No replication, sell exactly the fixed supply.
		cfg.Server.Overbook.FixedReplicas = 1
		cfg.Server.Overbook.AdmissionEpsilon = 0.5
	case ModeOracle:
		cfg.Server.Overbook.FixedReplicas = 1
		cfg.Server.Overbook.AdmissionEpsilon = 0.5
		// With perfect foresight the only assignment risk is placing more
		// ads on a client than it has slots; a strong spread weight makes
		// the planner water-fill clients proportionally to true capacity.
		cfg.Server.Overbook.SpreadWeight = 5
	}
	return cfg
}

// Validate checks the assembly parameters.
func (c Config) Validate() error {
	if err := c.Server.Validate(); err != nil {
		return err
	}
	switch {
	case c.Mode == ModePredictive && (c.Percentile <= 0 || c.Percentile >= 1):
		return fmt.Errorf("core: Percentile must be in (0,1), got %v", c.Percentile)
	case c.Mode == ModeNaiveBulk && c.NaiveK < 1:
		return fmt.Errorf("core: NaiveK must be >= 1, got %d", c.NaiveK)
	}
	return nil
}

// Rescue reports whether a cache miss first tries to rescue an open
// sold impression (adserver.Server.ServeMiss): in every prefetching
// mode, unless NoRescue ablates it.
func (c Config) Rescue() bool { return c.Mode != ModeOnDemand && !c.NoRescue }

// NewPredictor builds client id's slot predictor for the configured
// mode: the one per-mode factory behind both sim.Run's server and the
// transport replay's server pools. oracle supplies the client's true
// per-period slot series and is called only in ModeOracle. Call it on a
// validated Config.
func (c Config) NewPredictor(id int, oracle func(clientID int) []int) predict.Predictor {
	switch c.Mode {
	case ModeNaiveBulk:
		return constPredictor{k: c.NaiveK}
	case ModeOracle:
		return predict.NewOracle(oracle(id))
	default:
		if c.AdaptivePercentile {
			a, err := predict.NewAdaptivePercentile(c.Percentile, 0.15)
			if err != nil {
				// Percentile was validated by Validate; failure is a bug.
				panic(err)
			}
			return a
		}
		return predict.NewPercentileHistogram(c.Percentile)
	}
}

// constPredictor backs ModeNaiveBulk: it always "predicts" K slots.
type constPredictor struct{ k int }

func (c constPredictor) Name() string { return fmt.Sprintf("const-%d", c.k) }
func (c constPredictor) Predict(predict.Period) predict.Estimate {
	return predict.Estimate{Slots: float64(c.k), Mean: float64(c.k), NoShowProb: 0}
}
func (c constPredictor) Observe(predict.Period, int) {}

// ProbAtMost implements predict.Distribution: the naive client "will
// show" exactly its K configured slots.
func (c constPredictor) ProbAtMost(_ predict.Period, k int) float64 {
	if k < c.k {
		return 0
	}
	return 1
}
