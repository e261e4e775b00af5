// Package core assembles the paper's primary contribution into one
// composable engine: client slot prediction, admission-controlled sale
// of predicted inventory, overbooked replication, deadline-aware client
// caches, and claim/cancellation propagation. It is deliberately
// independent of the trace-driven simulator — callers feed it period
// boundaries and ad-slot events (from a trace replay, a live clock, or
// tests) and charge network transfers however they account energy.
//
// The engine supports the four delivery architectures compared in the
// evaluation:
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
	"sort"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
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

// Config assembles a System.
type Config struct {
	Mode     Mode
	Delivery Delivery

	// Server carries the period length, deadlines, latencies and the
	// overbooking policy.
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

	// CacheCap bounds each device's ad cache.
	CacheCap int
}

// DefaultConfig returns the evaluation operating point for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:       mode,
		Delivery:   DeliverScheduled,
		Server:     adserver.DefaultConfig(),
		Percentile: 0.9,
		NaiveK:     4,
		CacheCap:   64,
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
	case c.CacheCap < 1:
		return fmt.Errorf("core: CacheCap must be >= 1, got %d", c.CacheCap)
	}
	return nil
}

// NewPredictor builds client id's slot predictor for the configured
// mode: the one per-mode factory behind both the in-process System and
// the transport replay's server pools. oracle supplies the client's true
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

// SlotOutcome describes what one ad slot did, so the caller can charge
// the network transfers it implied.
type SlotOutcome struct {
	// PiggybackAds is how many pending bundle ads were downloaded at
	// this slot (piggyback delivery only).
	PiggybackAds int

	// CacheHit is true when the slot was served from the prefetch cache.
	CacheHit bool

	// Fetched is true when the ad was fetched over the network at
	// display time (status quo path or prefetch fallback).
	Fetched bool

	// Rescued is true when the fallback fetch served an already-sold
	// open impression instead of selling fresh inventory.
	Rescued bool

	// TopUpAds is how many additional open impressions the rescue
	// contact carried back into the cache (charged by the caller
	// alongside the fetch).
	TopUpAds int

	// Impression is the impression displayed, when one was sold
	// (cache hits always have one; on-demand fetches only when a
	// campaign bid).
	Impression auction.ImpressionID
}

// ScheduledDelivery is a bundle download that the caller must charge at
// the period boundary (scheduled delivery only).
type ScheduledDelivery struct {
	Client int
	Ads    int
}

// System is the assembled prefetching ad system over a fixed client set.
type System struct {
	cfg     Config
	server  *adserver.Server
	devices map[int]*client.Device

	// reportHook, when set, filters display reports: returning false
	// drops the report (failure injection — the display happened but the
	// server never hears about it, so the impression goes unbilled).
	reportHook func(auction.ImpressionID, simclock.Time) bool

	// offline, when set, reports that a client is unreachable at an
	// instant (churn injection): scheduled deliveries to it are deferred
	// to its next contact instead of downloading at the period boundary.
	offline func(clientID int, at simclock.Time) bool
}

// New assembles a system. oracleSeries must be non-nil for ModeOracle
// and supplies each client's true per-period slot series; hints
// (optional) supplies per-client category context for auctions.
func New(cfg Config, ex *auction.Exchange, clientIDs []int,
	oracleSeries func(clientID int) []int,
	hints func(clientID int) []trace.Category) (*System, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeOracle && oracleSeries == nil {
		return nil, fmt.Errorf("core: ModeOracle requires oracleSeries")
	}
	mk := func(id int) predict.Predictor { return cfg.NewPredictor(id, oracleSeries) }
	srv, err := adserver.New(cfg.Server, ex, clientIDs, mk, hints)
	if err != nil {
		return nil, err
	}
	sys := &System{cfg: cfg, server: srv, devices: make(map[int]*client.Device, len(clientIDs))}
	for _, id := range clientIDs {
		d, err := client.NewDevice(id, cfg.CacheCap)
		if err != nil {
			return nil, err
		}
		sys.devices[id] = d
	}
	return sys, nil
}

// Config returns the assembly configuration.
func (s *System) Config() Config { return s.cfg }

// Server exposes the ad server (ledger, predictors) for inspection.
func (s *System) Server() *adserver.Server { return s.server }

// Device returns one client's device state (nil if unknown).
func (s *System) Device(id int) *client.Device { return s.devices[id] }

// SetReportHook installs a display-report filter for failure injection;
// returning false from the hook drops that report.
func (s *System) SetReportHook(hook func(auction.ImpressionID, simclock.Time) bool) {
	s.reportHook = hook
}

// SetOfflineFn installs a churn oracle for failure injection: scheduled
// bundles for clients offline at the period boundary are queued as
// pending and download at the client's next contact instead.
func (s *System) SetOfflineFn(fn func(clientID int, at simclock.Time) bool) {
	s.offline = fn
}

// Period returns the configured prefetch window.
func (s *System) Period() time.Duration { return s.cfg.Server.Period }

// StartPeriod opens the period beginning at now. In prefetching modes
// it runs the forecast/sale/replication round and routes bundles per
// the delivery policy: scheduled deliveries are returned for the caller
// to charge now; piggyback bundles are queued on the devices. OnDemand
// mode returns nothing. A caller still training predictors (warm-up)
// does not open periods; it observes slots on Server directly.
func (s *System) StartPeriod(now simclock.Time, p predict.Period) ([]ScheduledDelivery, adserver.PeriodStats) {
	if s.cfg.Mode == ModeOnDemand {
		return nil, adserver.PeriodStats{}
	}
	bundles, stats := s.server.StartPeriod(now, p)
	var out []ScheduledDelivery
	for _, b := range bundles {
		dev := s.devices[b.Client]
		if dev == nil {
			continue
		}
		if s.cfg.Delivery == DeliverScheduled &&
			(s.offline == nil || !s.offline(b.Client, now)) {
			dev.Assign(b.Ads, true)
			out = append(out, ScheduledDelivery{Client: b.Client, Ads: len(b.Ads)})
		} else {
			dev.Assign(b.Ads, false)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out, stats
}

// HandleSlot processes one ad slot firing on a client at instant now.
// hints carry the slot's app category for on-demand targeting.
func (s *System) HandleSlot(now simclock.Time, clientID int, hints []trace.Category) (SlotOutcome, error) {
	dev := s.devices[clientID]
	if dev == nil {
		return SlotOutcome{}, fmt.Errorf("core: unknown client %d", clientID)
	}
	var out SlotOutcome
	s.server.ObserveSlot(clientID)

	if s.cfg.Delivery == DeliverPiggyback {
		out.PiggybackAds = dev.TakePending()
	}

	ad, hit := dev.ServeSlot(now, func(id auction.ImpressionID) bool {
		return s.server.CancellationKnown(id, now)
	})
	if hit {
		out.CacheHit = true
		out.Impression = ad.ID
		if s.reportHook != nil && !s.reportHook(ad.ID, now) {
			return out, nil // report lost in transit
		}
		if err := s.server.ReportDisplay(ad.ID, now); err != nil {
			return out, fmt.Errorf("core: reporting display of %d: %w", ad.ID, err)
		}
		return out, nil
	}

	// Fallback: fetch at display time (the status-quo path). The fetch
	// happens regardless of whether a campaign bids (unsold slots show a
	// house ad), so the energy cost is unconditional. In prefetching
	// modes the fetch first tries to rescue an open sold impression; only
	// when none is pending does it sell fresh inventory.
	out.Fetched = true
	if s.cfg.Mode != ModeOnDemand && !s.cfg.NoRescue {
		if id, ok := s.server.RescueOpen(now, clientID); ok {
			out.Impression = id
			out.Rescued = true
			if ads := s.server.TopUp(now, clientID); len(ads) > 0 {
				dev.Assign(ads, true)
				out.TopUpAds = len(ads)
			}
			return out, nil
		}
	}
	if imp, ok := s.server.OnDemandSell(now, clientID, hints); ok {
		out.Impression = imp.ID
	}
	return out, nil
}

// EndPeriod closes the period that just elapsed: predictors observe the
// true slot counts and expired impressions are swept. It returns the
// number of SLA violations recorded by the sweep.
func (s *System) EndPeriod(now simclock.Time, p predict.Period) int {
	return s.server.EndPeriod(now, p)
}

// Counters sums device counters across all clients.
func (s *System) Counters() client.Counters {
	var total client.Counters
	for _, d := range s.devices {
		total.Add(d.Counters)
	}
	return total
}
