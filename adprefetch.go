// Package adprefetch is the public API of the mobile-ad prefetching
// system: an end-to-end reproduction of "Prefetching Mobile Ads: Can
// Advertising Systems Afford It?" (Mohan, Nath, Riva — EuroSys 2013).
//
// The library contains everything the paper's evaluation needs, built
// from scratch on the standard library:
//
//   - a radio energy model (3G/LTE/WiFi RRC state machines with
//     tail-energy accounting) — package internal/radio;
//   - a synthetic smartphone-usage workload calibrated to published
//     trace statistics, with serialization for plugging in real traces —
//     internal/trace;
//   - client-side ad-slot predictors, including the paper's
//     conservative percentile-histogram model — internal/predict;
//   - an ad exchange with campaigns, budgets, targeting and
//     second-price auctions — internal/auction;
//   - the overbooking model: admission control and rank-aware replica
//     planning — internal/overbook;
//   - the ad server and client runtime — internal/adserver,
//     internal/client — and their HTTP protocol, internal/transport;
//   - the system configuration and the trace-driven simulator —
//     internal/core, internal/sim;
//   - and the experiment harness regenerating every table and figure —
//     internal/experiments.
//
// This package re-exports the surface a downstream user needs: generate
// or load a workload, configure a system in one of the four delivery
// modes, run the simulation, and read the energy/SLA/revenue outcomes.
// Callers driving slot and period events themselves use the wire trio:
// TransportServer, TransportDevice and TransportCoordinator.
//
// Quick start:
//
//	cfg := adprefetch.DefaultSimConfig(adprefetch.ModePredictive)
//	cfg.TraceCfg.Users = 200
//	res, err := adprefetch.RunSimulation(cfg)
//	if err != nil { ... }
//	fmt.Println(res) // energy, hit rate, SLA violations, revenue loss
package adprefetch

import (
	"io"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Delivery architectures (see core.Mode).
const (
	ModeOnDemand   = core.ModeOnDemand   // status quo: fetch at display time
	ModeNaiveBulk  = core.ModeNaiveBulk  // fixed-K prefetch, no prediction
	ModePredictive = core.ModePredictive // the paper's system
	ModeOracle     = core.ModeOracle     // perfect-foresight upper bound
)

// Bundle delivery policies.
const (
	DeliverScheduled = core.DeliverScheduled // download at period boundary
	DeliverPiggyback = core.DeliverPiggyback // ride the next natural radio wake
)

// Core system types.
type (
	// Mode selects the delivery architecture.
	Mode = core.Mode
	// Delivery selects when prefetch bundles download.
	Delivery = core.Delivery
	// SystemConfig configures the prefetching system.
	SystemConfig = core.Config

	// SimConfig parameterizes an end-to-end simulation run.
	SimConfig = sim.Config
	// SimResult is a run's energy/SLA/revenue outcome.
	SimResult = sim.Result
	// WiFiSchedule models mixed WiFi/cellular connectivity.
	WiFiSchedule = sim.WiFiSchedule

	// TraceConfig parameterizes the synthetic population generator.
	TraceConfig = trace.GenConfig
	// Population is a set of user traces.
	Population = trace.Population
	// User is one device's session trace.
	User = trace.User
	// Session is one foreground app session.
	Session = trace.Session
	// Catalog is the app catalog.
	Catalog = trace.Catalog
	// App describes one catalog entry.
	App = trace.App

	// RadioProfile holds one technology's power/timer constants.
	RadioProfile = radio.Profile

	// Campaign is an advertiser's standing order.
	Campaign = auction.Campaign
	// Exchange runs the second-price auctions.
	Exchange = auction.Exchange
	// Ledger aggregates billing/SLA outcomes.
	Ledger = auction.Ledger
	// DemandConfig synthesizes advertiser demand.
	DemandConfig = auction.DemandConfig

	// Predictor forecasts per-period ad-slot counts.
	Predictor = predict.Predictor
	// Estimate is a slot forecast.
	Estimate = predict.Estimate

	// EnergyConfig parameterizes the measurement study.
	EnergyConfig = energy.Config
	// EnergyReport is a per-app energy attribution.
	EnergyReport = energy.Report

	// Table is rendered experiment output (text and CSV).
	Table = metrics.Table

	// Time is an instant in virtual time (nanoseconds since the
	// simulation epoch), the clock of traces and of the wire protocol.
	Time = simclock.Time
	// Period describes one prefetch window.
	Period = predict.Period
	// Category tags apps/campaigns for targeting.
	Category = trace.Category

	// Scale sizes an experiment run.
	Scale = experiments.Scale

	// TransportServer adapts the ad server to the HTTP protocol.
	TransportServer = transport.ShardedServer
	// TransportDevice is the phone-side HTTP runtime.
	TransportDevice = transport.Device
	// TransportCoordinator drives period rounds over HTTP.
	TransportCoordinator = transport.Coordinator
)

// Virtual-time units.
const (
	Second = simclock.Second
	Minute = simclock.Minute
	Hour   = simclock.Hour
	Day    = simclock.Day
)

// At converts a duration since the epoch into a virtual instant.
func At(d time.Duration) Time { return simclock.At(d) }

// PeriodOf computes the Period descriptor of instant t under the given
// prefetch window size.
func PeriodOf(t Time, window time.Duration) Period { return predict.PeriodOf(t, window) }

// Radio profiles with literature-calibrated constants.
func Profile3G() RadioProfile   { return radio.Profile3G() }
func ProfileLTE() RadioProfile  { return radio.ProfileLTE() }
func ProfileWiFi() RadioProfile { return radio.ProfileWiFi() }

// Profile3GWithFACH returns the 3G profile with the shared-channel
// (FACH) path enabled for transfers up to threshold bytes — the X5
// ablation model.
func Profile3GWithFACH(threshold int64) RadioProfile { return radio.Profile3GWithFACH(threshold) }

// DefaultTraceConfig returns the population generator configuration used
// by the evaluation (1,738 users, 28 days).
func DefaultTraceConfig() TraceConfig { return trace.DefaultGenConfig() }

// GenerateTrace synthesizes a population.
func GenerateTrace(cfg TraceConfig) (*Population, error) { return trace.Generate(cfg) }

// WriteTrace serializes a population as JSON-lines.
func WriteTrace(w io.Writer, p *Population) error { return trace.Write(w, p) }

// ReadTrace parses a population from the JSON-lines format, allowing
// real traces to substitute for the synthetic workload.
func ReadTrace(r io.Reader) (*Population, error) { return trace.Read(r) }

// WriteTraceCSV exports a population as a flat session CSV for external
// analysis tools.
func WriteTraceCSV(w io.Writer, p *Population) error { return trace.WriteCSV(w, p) }

// ReadTraceCSV parses the CSV produced by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) (*Population, error) { return trace.ReadCSV(r) }

// CharacterizeTrace summarizes a population (sessions/day, session
// lengths, ad slots, day-over-day regularity) under the given ad refresh
// interval, rendered as the F2 table.
func CharacterizeTrace(p *Population, cat *Catalog, refresh time.Duration) *Table {
	return trace.Characterize(p, cat, refresh).Table()
}

// DefaultCatalog returns the 15-app "top free apps" catalog.
func DefaultCatalog() *Catalog { return trace.NewCatalog(trace.DefaultCatalog()) }

// NewCatalog wraps a custom app list.
func NewCatalog(apps []App) *Catalog { return trace.NewCatalog(apps) }

// DefaultSystemConfig returns the evaluation operating point for a mode.
func DefaultSystemConfig(mode Mode) SystemConfig { return core.DefaultConfig(mode) }

// NewTransportServer wraps an ad server for HTTP serving; mount
// .Handler() on any mux (see cmd/adserverd and examples/httpdemo).
func NewTransportServer(srv *adserver.Server) *TransportServer { return transport.NewServer(srv) }

// NewExchange creates an ad exchange over a campaign set with the given
// per-impression reserve price.
func NewExchange(campaigns []Campaign, reserveUSD float64) (*Exchange, error) {
	return auction.NewExchange(campaigns, reserveUSD)
}

// DefaultDemand returns a synthetic advertiser demand configuration.
func DefaultDemand() DemandConfig { return auction.DefaultDemand() }

// DefaultSimConfig returns the evaluation simulation configuration for a
// mode (a moderate subsample; raise TraceCfg.Users/Days for full scale).
func DefaultSimConfig(mode Mode) SimConfig { return sim.DefaultConfig(mode) }

// RunSimulation replays the workload against the assembled system and
// returns the measured outcome.
func RunSimulation(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// CompareModes runs the same configuration under several modes; the
// first result is the savings baseline.
func CompareModes(base SimConfig, modes []Mode) ([]*SimResult, error) {
	return sim.Compare(base, modes)
}

// CompareTable renders mode-comparison results as a table.
func CompareTable(title string, results []*SimResult) *Table {
	return sim.CompareTable(title, results)
}

// DefaultEnergyConfig returns the measurement-study configuration
// (3G, 2 KB ads, 30 s refresh).
func DefaultEnergyConfig() EnergyConfig { return energy.DefaultConfig() }

// MeasureEnergy replays a population's traffic through the radio model
// and attributes energy per app and per cause (app traffic vs ads).
func MeasureEnergy(p *Population, cat *Catalog, cfg EnergyConfig) (*EnergyReport, error) {
	return energy.MeasurePopulation(p, cat, cfg)
}

// EnergyTable renders the measurement study as the paper's Table 1.
func EnergyTable(rep *EnergyReport) *Table { return energy.Table1(rep) }

// NewPercentileHistogram returns the paper's client predictor at
// percentile q (the evaluation uses 0.9).
func NewPercentileHistogram(q float64) Predictor { return predict.NewPercentileHistogram(q) }

// Experiment scales.
func ScaleSmall() Scale  { return experiments.Small() }
func ScaleMedium() Scale { return experiments.Medium() }
func ScaleFull() Scale   { return experiments.Full() }

// Experiments lists the table/figure IDs that can be regenerated.
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line summary.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, s Scale) (*Table, error) { return experiments.Run(id, s) }

// PlotTable renders a table's first numeric column as an ASCII bar
// chart (ok=false when the table has none).
func PlotTable(t *Table, width int) (string, bool) { return metrics.PlotFirstNumeric(t, width) }

// SlotRefreshDefault is the in-app ad rotation period the measurement
// study assumes (the Microsoft Ad SDK default).
const SlotRefreshDefault = 30 * time.Second
