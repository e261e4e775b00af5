// Package sim runs the end-to-end evaluation: it replays a population
// of usage traces against the prefetching ad system (an adserver.Server
// and one client.Device per user) and a per-device radio energy model,
// producing the energy / SLA / revenue numbers behind every figure in
// the evaluation.
//
// Both drivers — Run in-process, RunTransportStream over the wire — walk
// one schedule: an explicit loop over the prefetch-period boundaries
// (each closes the previous period, switches selling on once warm-up
// ends, and opens the next), and between two boundaries the users'
// trace events (app traffic and ad slots), popped one at a time by
// drainDue from simclock.WakeHeaps ordered by (time, user id). A
// boundary comes before any event at its own instant, and events after
// the last full period fire after the final EndPeriod. Run walks one
// heap over every user; it is single-threaded and deterministic for a
// given configuration. The wire replay walks one heap per worker,
// concurrently, so at one worker its events fire in Run's order.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/transport"
)

// AdBytes is the size of one ad download (creative plus HTTP overhead),
// charged to the radio for every ad a device fetches.
const AdBytes int64 = 2048

// Config assembles one simulation run.
type Config struct {
	// Population to replay; if nil, one is generated from TraceCfg.
	// Either way its app ids index trace.DefaultCatalog.
	Population *trace.Population
	TraceCfg   trace.GenConfig

	// MaxUsers truncates the population for quick runs (0 = all).
	MaxUsers int

	Radio radio.Profile

	// WiFiSchedule, when enabled, models mixed connectivity: each user
	// is on WiFi during their personal home window (roughly evenings and
	// nights) and on the cellular Radio otherwise. Transfers route to
	// whichever radio is active, each with its own tail state.
	WiFiSchedule WiFiSchedule

	// ReportBytes charges a radio transfer per cache-hit display report.
	// The deployed design batches reports and piggybacks them on
	// existing transfers (their bytes are negligible and they never wake
	// the radio), so the default is 0; setting it nonzero models a
	// naive report-at-display-time client, an ablation worth measuring —
	// an immediate 200-byte report costs nearly as much as fetching the
	// ad, erasing the prefetch savings.
	ReportBytes int64

	RefreshInterval time.Duration

	// Core selects mode, delivery policy and server policy (including
	// the prefetch period, and in Core.Server.Overbook.CacheCap the
	// size of every device's ad cache).
	Core core.Config

	// Demand shapes the exchange; every run prices at
	// auction.DefaultReserveUSD.
	Demand auction.DemandConfig

	// WarmupDays trains predictors before selling begins; all monetary
	// and energy metrics are measured after warm-up.
	WarmupDays int

	// ReportLossProb injects failure: a display report is lost with this
	// probability (the impression goes unbilled and expires).
	ReportLossProb float64

	// ChurnProb injects failure: each user is offline (no sessions, no
	// radio, no deliveries) for any given prefetch period with this
	// probability. Overbooked replication is what keeps sold impressions
	// displayable despite churn.
	ChurnProb float64

	Seed int64
}

// WiFiSchedule models when users are on WiFi (home/office coverage).
type WiFiSchedule struct {
	// Enabled turns the mixed-connectivity model on.
	Enabled bool
	// HomeStartHour..HomeEndHour (wrapping midnight) is the nominal WiFi
	// window; each user's window is phase-shifted deterministically.
	HomeStartHour int
	HomeEndHour   int
	// Coverage is the probability a user has WiFi at home at all.
	Coverage float64
}

// DefaultWiFiSchedule returns evenings-and-nights-at-home coverage:
// WiFi from 19:00 to 08:00 for 80% of users.
func DefaultWiFiSchedule() WiFiSchedule {
	return WiFiSchedule{Enabled: true, HomeStartHour: 19, HomeEndHour: 8, Coverage: 0.8}
}

// onWiFi reports whether a user is on WiFi at an instant; shift
// personalizes the window by +-2h per user.
func (w WiFiSchedule) onWiFi(hasWiFi bool, shift int, at simclock.Time) bool {
	if !w.Enabled || !hasWiFi {
		return false
	}
	h := (at.HourOfDay() + shift + 24) % 24
	start, end := w.HomeStartHour, w.HomeEndHour
	if start <= end {
		return h >= start && h < end
	}
	return h >= start || h < end
}

// DefaultConfig returns a moderately sized run (a subsample of the full
// population so unit-test and example runs finish in seconds); cmd/
// experiments scales it up.
func DefaultConfig(mode core.Mode) Config {
	tc := trace.DefaultGenConfig()
	tc.Users = 200
	tc.Days = 10
	return Config{
		TraceCfg:        tc,
		Radio:           radio.Profile3G(),
		ReportBytes:     0,
		RefreshInterval: 30 * time.Second,
		Core:            core.DefaultConfig(mode),
		Demand:          auction.DefaultDemand(),
		WarmupDays:      5,
		Seed:            1,
	}
}

// Validate checks the run configuration.
func (c Config) Validate() error {
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	switch {
	case c.ReportBytes < 0:
		return fmt.Errorf("sim: negative ReportBytes")
	case c.RefreshInterval <= 0:
		return fmt.Errorf("sim: RefreshInterval must be positive, got %v", c.RefreshInterval)
	case c.WarmupDays < 0:
		return fmt.Errorf("sim: negative WarmupDays")
	case c.ReportLossProb < 0 || c.ReportLossProb > 1:
		return fmt.Errorf("sim: ReportLossProb must be in [0,1], got %v", c.ReportLossProb)
	case c.ChurnProb < 0 || c.ChurnProb > 1:
		return fmt.Errorf("sim: ChurnProb must be in [0,1], got %v", c.ChurnProb)
	}
	return nil
}

// Result is the outcome of one run, measured after warm-up.
type Result struct {
	Mode     core.Mode
	Delivery core.Delivery
	Users    int
	Days     int // measured days (post warm-up)

	// Energy over the measurement window, attributed per the radio model.
	AdEnergyJ  float64
	AppEnergyJ float64

	// Money and SLA outcomes.
	Ledger auction.Ledger

	// Client-side counters.
	Counters client.Counters

	// Aggregated per-period server stats.
	SoldTotal    int64
	ReplicaTotal int64
	PlacedTotal  int64
	Periods      int

	// PerUserAdJPerDay is the distribution of ad energy per user per
	// measured day, for the fairness/distribution figure.
	PerUserAdJPerDay metrics.Sample

	// CampaignBilled is each campaign's billed revenue, for checking
	// that prefetching does not distort auction outcomes.
	CampaignBilled map[auction.CampaignID]float64

	// Resilience outcomes of a fault-plan run (TransportOpts.Plan); zero
	// elsewhere. RetryEnergyJ is the radio-model cost of retries alone —
	// the energy price the fleet pays for robustness under the fault
	// plan — and Net aggregates the per-device transport counters.
	RetryEnergyJ   float64
	FaultsInjected int64
	Net            transport.NetCounters

	// Restarts counts the process kills the crash harness injected and
	// recovered from (TransportOpts.Crashes; zero elsewhere).
	Restarts int

	// PerClient maps user id to that device's own counters on the
	// transport path (nil on the in-process path). The differential
	// batching suite compares it field-for-field between wire modes; the
	// aggregate Counters above is its sum.
	PerClient map[int]client.Counters

	// Obs is the server-side metrics registry of a transport run (nil on
	// the in-process path): per-endpoint latency/size histograms, status
	// counts, per-shard gauges — everything GET /v1/metrics would serve.
	// ClientObs aggregates the device fleet's client-side instrumentation
	// (retries, backoff, cache hit/miss, deferred depth, retry energy).
	Obs       *obs.Registry
	ClientObs *obs.Registry

	// Multi-tenant outcomes of a registry-backed transport run (zero
	// elsewhere). TenantLedgers is each named tenant's ledger view summed
	// across shards and nodes; TenantSlotP99NS each tenant's
	// client-observed HandleSlot p99 in nanoseconds (the legacy tenant
	// appears under "" when any device is unowned). FloodAdmitted and
	// FloodShed count the noisy-neighbor load source's accepted and
	// rate-limited requests (TransportOpts.Flood).
	TenantLedgers   map[string]auction.Ledger
	TenantSlotP99NS map[string]float64
	FloodAdmitted   int64
	FloodShed       int64

	// StreamPeriods is the transport replay's per-period load report
	// (RunTransportStream; nil elsewhere): one row per simulated period
	// with the client-observed request-latency quantiles, so a diurnal
	// run exposes its peak-hour tail directly. A period that does not
	// divide the span adds a last row for the events after the final
	// boundary.
	StreamPeriods []StreamPeriodStat
}

// StreamPeriodStat is one period of a transport replay as the device
// fleet experienced it: how many clients woke up, how many requests
// they issued, how long the period took in wall time, and the latency
// distribution of the individual requests.
type StreamPeriodStat struct {
	Index     int // period index from trace start
	HourOfDay int // simulated hour at the period's open
	Wakeups   int64
	Ops       int64
	WallNS    int64
	P50NS     float64
	P95NS     float64
	P99NS     float64
}

// OpsPerSec is the period's client-side request throughput in wall time.
func (s StreamPeriodStat) OpsPerSec() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	return float64(s.Ops) / (float64(s.WallNS) / 1e9)
}

// AdEnergyPerUserDay returns the headline metric: joules of ad energy
// per user per day.
func (r Result) AdEnergyPerUserDay() float64 {
	if r.Users == 0 || r.Days == 0 {
		return 0
	}
	return r.AdEnergyJ / float64(r.Users) / float64(r.Days)
}

// MeanReplication returns average replicas per placed impression.
func (r Result) MeanReplication() float64 {
	if r.PlacedTotal == 0 {
		return 0
	}
	return float64(r.ReplicaTotal) / float64(r.PlacedTotal)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: ad %.1f J/user/day, hit %.0f%%, SLA viol %.3g%%, rev loss %.3g%%",
		r.Mode, r.Delivery, r.AdEnergyPerUserDay(), 100*r.Counters.HitRate(),
		100*r.Ledger.ViolationRate(), 100*r.Ledger.RevenueLossFrac())
}

// timelineEvent is one precomputed user event, kept to 24 bytes.
type timelineEvent struct {
	at    simclock.Time
	bytes int64 // app transfer size; 0 for slot events
	app   int32 // slot's app; its hints are slotHints(cat)[app]
	slot  bool
}

// endOfTime is the drain bound after the last period boundary: every
// event still queued then fires, however late.
const endOfTime = simclock.Time(math.MaxInt64)

// warmupEnd is the instant selling begins.
func (c Config) warmupEnd() simclock.Time { return simclock.Time(c.WarmupDays) * simclock.Day }

// owner attributes a transfer of kind at instant at: anything before
// warm-up ends is charged to "warmup".
func (c Config) owner(at simclock.Time, kind radio.Owner) radio.Owner {
	if at < c.warmupEnd() {
		return "warmup"
	}
	return kind
}

// chargeSlot charges a served slot's ad traffic to r: a fetch downloads
// the ad and its top-ups, a cache hit sends a display report when
// ReportBytes is set.
func (c Config) chargeSlot(r *radio.Radio, at simclock.Time, fetched bool, topUps int, hit bool) {
	if fetched {
		r.Transfer(at, AdBytes*int64(1+topUps), c.owner(at, "ads"))
	} else if hit && c.ReportBytes > 0 {
		r.Transfer(at, c.ReportBytes, c.owner(at, "ads"))
	}
}

// addEnergy flushes one user's radios (nil ones skipped) and adds their
// ad and app energy to the totals and, unless lean, the ad energy per
// measured day to PerUserAdJPerDay: both drivers measure with it, after
// setting Days.
func (r *Result) addEnergy(lean bool, radios ...*radio.Radio) {
	var adJ, appJ float64
	for _, rd := range radios {
		if rd != nil {
			rd.Flush()
			adJ += rd.UsageOf("ads").TotalJ()
			appJ += rd.UsageOf("app").TotalJ()
		}
	}
	r.AdEnergyJ += adJ
	r.AppEnergyJ += appJ
	if !lean && r.Days > 0 {
		r.PerUserAdJPerDay.Add(adJ / float64(r.Days))
	}
}

// simUser is one user in sim.Run: a cellular radio and, under a WiFi
// schedule, a WiFi radio with its own tail state and the user's personal
// window; down[p] marks the periods churn takes the device offline.
type simUser struct {
	cell, wifi *radio.Radio
	hasWiFi    bool
	shift      int
	down       []bool
}

// radioAt returns the radio carrying the user's transfers at at.
func (u *simUser) radioAt(w WiFiSchedule, at simclock.Time) *radio.Radio {
	if w.onWiFi(u.hasWiFi, u.shift, at) {
		return u.wifi
	}
	return u.cell
}

// offline reports whether churn holds the user off the network in the
// period containing at.
func (u *simUser) offline(at simclock.Time, period time.Duration) bool {
	p := int(at / simclock.Time(period))
	return p >= 0 && p < len(u.down) && u.down[p]
}

// seedHeaps shards the users into contiguous id ranges, one WakeHeap
// per worker (never more workers than users), and seeds each heap with
// its range's first wake-ups. Users with empty traces (firstWake < 0)
// never enter a heap: on the wire they still fetch bundles (the server
// plans for every member) but cost nothing per period.
func seedHeaps(firstWake []simclock.Time, workers int) []simclock.WakeHeap {
	n := len(firstWake)
	workers = min(workers, n)
	heaps := make([]simclock.WakeHeap, workers)
	for w := range heaps {
		for id := w * n / workers; id < (w+1)*n/workers; id++ {
			if at := firstWake[id]; at >= 0 {
				heaps[w].Push(simclock.Wake{At: at, ID: id})
			}
		}
	}
	return heaps
}

// cursor is a user's place in its timeline during a drain; tl is held
// only while the user has events left before the drain bound.
type cursor struct {
	tl   []timelineEvent
	next int
}

// drainDue fires every queued event due before end, one at a time: it
// pops the earliest (time, user id) wake-up, visits the event at that
// user's cursor cur[ID], and pushes the user back at its next event. At
// a user's first wake-up in the drain, load supplies the timeline; the
// cursor resumes at the wake-up's time and drops the timeline once the
// next event is at or past end. An event at end stays queued, so the
// boundary at end fires before it. It returns the number of loads.
func drainDue(h *simclock.WakeHeap, end simclock.Time, cur []cursor,
	load func(id int) []timelineEvent, visit func(id int, ev timelineEvent) error) (int64, error) {
	var loads int64
	for h.Len() > 0 && h.Peek().At < end {
		wk := h.Pop()
		c := &cur[wk.ID]
		if c.tl == nil {
			c.tl = load(wk.ID)
			c.next = sort.Search(len(c.tl), func(i int) bool { return c.tl[i].at >= wk.At })
			loads++
		}
		ev := c.tl[c.next]
		if c.next++; c.next < len(c.tl) {
			h.Push(simclock.Wake{At: c.tl[c.next].at, ID: wk.ID})
		}
		if c.next == len(c.tl) || c.tl[c.next].at >= end {
			c.tl = nil
		}
		if err := visit(wk.ID, ev); err != nil {
			return loads, err
		}
	}
	return loads, nil
}

// inproc is the ad system sim.Run drives in process: the engine and one
// device per user position. The wire replay drives the same engine
// through transport.Device and transport.Coordinator instead.
type inproc struct {
	cfg  core.Config
	srv  *adserver.Server
	devs []*client.Device // by user position
	pos  map[int]int      // user id -> position
}

// newInproc assembles the engine over ex and one device per user id,
// at the id's position in ids. oracle supplies a user's true per-period
// slot series (ModeOracle only); hints (optional) its category context.
func newInproc(cfg core.Config, ex *auction.Exchange, ids []int,
	oracle func(id int) []int, hints func(id int) []trace.Category) (*inproc, error) {
	mk := func(id int) predict.Predictor { return cfg.NewPredictor(id, oracle) }
	srv, err := adserver.New(cfg.Server, ex, ids, mk, hints)
	if err != nil {
		return nil, err
	}
	s := &inproc{cfg: cfg, srv: srv, devs: make([]*client.Device, len(ids)), pos: make(map[int]int, len(ids))}
	for i, id := range ids {
		if s.devs[i], err = client.NewDevice(id, cfg.Server.Overbook.CacheCap); err != nil {
			return nil, err
		}
		s.pos[id] = i
	}
	return s, nil
}

// open runs the selling round of the period starting at now (none in
// ModeOnDemand) and hands each device its bundle. Under piggyback
// delivery a bundle waits in Pending for the device's next slot. Under
// scheduled delivery it downloads now, and download(i, n) charges user
// i's radio for its n ads, unless offline(i): a bundle parked for a
// device churn holds off the network would never be taken, so it is
// dropped.
func (s *inproc) open(now simclock.Time, p predict.Period,
	offline func(i int) bool, download func(i, ads int)) adserver.PeriodStats {
	if s.cfg.Mode == core.ModeOnDemand {
		return adserver.PeriodStats{}
	}
	bundles, stats := s.srv.StartPeriod(now, p)
	for _, b := range bundles {
		i := s.pos[b.Client]
		switch {
		case s.cfg.Delivery == core.DeliverPiggyback:
			s.devs[i].Assign(b.Ads, false)
		case !offline(i):
			s.devs[i].Assign(b.Ads, true)
			download(i, len(b.Ads))
		}
	}
	return stats
}

// slotOutcome is what one selling-phase slot did, for the radio charge.
type slotOutcome struct {
	piggyback int                  // pending bundle ads downloaded at the slot
	hit       bool                 // served from the cache; else fetched
	imp       auction.ImpressionID // displayed; 0 for a house ad
	rescued   bool                 // the fetch served an open sold impression
	topUps    int                  // ads the rescue carried into the cache
}

// slot serves one ad slot on user i at now: the server observes it, the
// device takes its pending bundle (piggyback delivery) and serves from
// its cache against the cancellations known at now, then reports the
// display. lost, when set, draws whether the report is lost in transit,
// leaving the impression unbilled. A miss fetches at display time
// through the fallback (adserver.Server.ServeMiss; hints target a fresh
// sale), whether or not a campaign bids: a house ad shows when none
// does, so the fetch's radio cost is unconditional.
func (s *inproc) slot(now simclock.Time, i int, hints []trace.Category, lost func() bool) (slotOutcome, error) {
	var out slotOutcome
	dev := s.devs[i]
	s.srv.ObserveSlot(dev.ID)
	if s.cfg.Delivery == core.DeliverPiggyback {
		out.piggyback = dev.TakePending()
	}
	ad, hit := dev.ServeSlot(now, func(id auction.ImpressionID) bool {
		return s.srv.CancellationKnown(id, now)
	})
	if hit {
		out.hit, out.imp = true, ad.ID
		if lost != nil && lost() {
			return out, nil
		}
		if err := s.srv.ReportDisplay(ad.ID, now); err != nil {
			return out, fmt.Errorf("sim: reporting display of %d: %w", ad.ID, err)
		}
		return out, nil
	}
	m := s.srv.ServeMiss(now, dev.ID, hints, s.cfg.Rescue())
	dev.Assign(m.TopUp, true)
	out.imp, out.rescued, out.topUps = m.Impression, m.Rescued, len(m.TopUp)
	return out, nil
}

// Run executes the simulation: the period loop, and between two
// boundaries drainDue over one wake heap of every user.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pop := cfg.Population
	if pop == nil {
		var err error
		pop, err = trace.Generate(cfg.TraceCfg)
		if err != nil {
			return nil, err
		}
	}
	users := pop.Users
	if cfg.MaxUsers > 0 && cfg.MaxUsers < len(users) {
		users = users[:cfg.MaxUsers]
	}
	// A user's position is its wake-heap ID, so positions follow user ids:
	// same-instant events then fire in user id order whatever order the
	// population lists its users in.
	users = slices.Clone(users)
	sort.SliceStable(users, func(i, j int) bool { return users[i].ID < users[j].ID })
	cat := trace.NewCatalog(trace.DefaultCatalog())
	warmupEnd := cfg.warmupEnd()
	if warmupEnd > pop.Span {
		return nil, fmt.Errorf("sim: warm-up %d days exceeds trace span %v", cfg.WarmupDays, pop.Span)
	}
	period := cfg.Core.Server.Period

	// Exchange and system assembly.
	rng := simclock.NewRand(cfg.Seed).Stream("sim")
	ex, err := auction.NewExchange(cfg.Demand.Generate(rng.Stream("demand")), auction.DefaultReserveUSD)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(users))
	pos := make(map[int]int, len(users))
	hints := make([][]trace.Category, len(users))
	for i, u := range users {
		ids[i] = u.ID
		pos[u.ID] = i
		hints[i] = topCategoriesOf(u, cat)
	}
	oracleSeries := func(id int) []int {
		return trace.SlotsPerPeriod(users[pos[id]], cat, cfg.RefreshInterval, period, pop.Span)
	}
	sys, err := newInproc(cfg.Core, ex, ids, oracleSeries, func(id int) []trace.Category { return hints[pos[id]] })
	if err != nil {
		return nil, err
	}

	// Per-user radios, timelines and first wake-ups.
	sims := make([]simUser, len(users))
	timelines := make([][]timelineEvent, len(users))
	firstWake := make([]simclock.Time, len(users))
	wifiRNG := rng.Stream("wifi")
	for i, u := range users {
		sims[i].cell = radio.New(cfg.Radio)
		if cfg.WiFiSchedule.Enabled {
			sims[i].wifi = radio.New(radio.ProfileWiFi())
			r := wifiRNG.StreamN("user", u.ID)
			sims[i].hasWiFi = r.Bernoulli(cfg.WiFiSchedule.Coverage)
			sims[i].shift = r.Intn(5) - 2
		}
		firstWake[i] = -1
		if timelines[i] = buildTimeline(u, cat, cfg.RefreshInterval); len(timelines[i]) > 0 {
			firstWake[i] = timelines[i][0].at
		}
	}
	heaps := seedHeaps(firstWake, 1)
	cur := make([]cursor, len(users))
	load := func(i int) []timelineEvent { return timelines[i] }
	appHints := slotHints(cat)

	var lost func() bool
	if cfg.ReportLossProb > 0 {
		lossRNG := rng.Stream("report-loss")
		lost = func() bool { return lossRNG.Bernoulli(cfg.ReportLossProb) }
	}
	if cfg.ChurnProb > 0 {
		churnRNG := rng.Stream("churn")
		periods := int(pop.Span/simclock.Time(period)) + 1
		for i, u := range users {
			sims[i].down = make([]bool, periods)
			r := churnRNG.StreamN("user", u.ID)
			for p := range sims[i].down {
				sims[i].down[p] = r.Bernoulli(cfg.ChurnProb)
			}
		}
	}

	// One user event: an app transfer, or a slot served by the system. A
	// user that churn holds offline does nothing. Before selling starts
	// (warm-up) a slot is a status-quo fetch that trains the predictor.
	selling := false
	visit := func(i int, ev timelineEvent) error {
		u := &sims[i]
		if u.offline(ev.at, period) {
			return nil
		}
		r := u.radioAt(cfg.WiFiSchedule, ev.at)
		if !ev.slot {
			r.Transfer(ev.at, ev.bytes, cfg.owner(ev.at, "app"))
			return nil
		}
		if !selling {
			sys.srv.ObserveSlot(ids[i])
			cfg.chargeSlot(r, ev.at, true, 0, false)
			return nil
		}
		out, err := sys.slot(ev.at, i, appHints[ev.app], lost)
		if err != nil {
			return err
		}
		if out.piggyback > 0 {
			r.Transfer(ev.at, int64(out.piggyback)*AdBytes, cfg.owner(ev.at, "ads"))
		}
		cfg.chargeSlot(r, ev.at, !out.hit, out.topUps, out.hit)
		return nil
	}

	res := &Result{Mode: cfg.Core.Mode, Delivery: cfg.Core.Delivery, Users: len(users)}
	periodsTotal := int(pop.Span / simclock.Time(period))
	for pi := 0; pi <= periodsTotal; pi++ {
		now := simclock.Time(pi) * simclock.Time(period)
		if pi > 0 {
			sys.srv.EndPeriod(now, predict.PeriodOf(now-simclock.Time(period), period))
		}
		selling = now >= warmupEnd
		end := endOfTime
		if pi < periodsTotal {
			if selling {
				stats := sys.open(now, predict.PeriodOf(now, period),
					func(i int) bool { return sims[i].offline(now, period) },
					func(i, ads int) {
						sims[i].radioAt(cfg.WiFiSchedule, now).Transfer(now, int64(ads)*AdBytes, cfg.owner(now, "ads"))
					})
				res.SoldTotal += int64(stats.Sold)
				res.ReplicaTotal += int64(stats.Replicas)
				res.PlacedTotal += int64(stats.Placed)
				res.Periods++
			}
			end = now + simclock.Time(period)
		}
		for w := range heaps {
			if _, err := drainDue(&heaps[w], end, cur, load, visit); err != nil {
				return nil, err
			}
		}
	}

	// Final sweep for impressions still open at trace end.
	ex.SweepExpired(pop.Span + simclock.Week)

	res.Days = pop.Days() - cfg.WarmupDays
	for _, u := range sims {
		res.addEnergy(false, u.cell, u.wifi)
	}
	res.Ledger = ex.Ledger()
	for _, d := range sys.devs {
		res.Counters.Add(d.Counters)
	}
	res.CampaignBilled = make(map[auction.CampaignID]float64, cfg.Demand.Campaigns)
	for i := 0; i < cfg.Demand.Campaigns; i++ {
		id := auction.CampaignID(i)
		if billed, _, err := ex.CampaignSpend(id); err == nil {
			res.CampaignBilled[id] = billed
		}
	}
	return res, nil
}

// buildTimeline expands one user's sessions into app transfers and ad
// slots, sorted by time.
func buildTimeline(u *trace.User, cat *trace.Catalog, refresh time.Duration) []timelineEvent {
	var tl []timelineEvent
	for _, s := range u.Sessions {
		app := cat.App(s.App)
		if app.StartupBytes > 0 {
			tl = append(tl, timelineEvent{at: s.Start, bytes: app.StartupBytes})
		}
		if app.RefreshEverySec > 0 && app.RefreshBytes > 0 {
			step := time.Duration(app.RefreshEverySec * float64(time.Second))
			for at := s.Start.Add(step); at.Before(s.End()); at = at.Add(step) {
				tl = append(tl, timelineEvent{at: at, bytes: app.RefreshBytes})
			}
		}
		if app.AdSupported {
			for _, at := range trace.SlotsOfSession(s, refresh) {
				tl = append(tl, timelineEvent{at: at, slot: true, app: int32(s.App)})
			}
		}
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].at < tl[j].at })
	return tl
}

// slotHints interns each app's slot targeting hints, its category.
func slotHints(cat *trace.Catalog) (hints [][]trace.Category) {
	for _, a := range cat.Apps() {
		hints = append(hints, []trace.Category{a.Category})
	}
	return hints
}

// topCategoriesOf computes a user's dominant app categories (by session
// count) for auction targeting hints.
func topCategoriesOf(u *trace.User, cat *trace.Catalog) []trace.Category {
	counts := map[trace.Category]int{}
	for _, s := range u.Sessions {
		counts[cat.App(s.App).Category]++
	}
	type kv struct {
		c trace.Category
		n int
	}
	var all []kv
	for c, n := range counts {
		all = append(all, kv{c, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].c < all[j].c
	})
	top := make([]trace.Category, 0, 3)
	for i, e := range all {
		if i == 3 {
			break
		}
		top = append(top, e.c)
	}
	return top
}

// Compare runs the same configuration under several modes and renders
// the comparison row the F7/F8 experiments are built from. The baseline
// (first mode) defines the 100% energy reference.
func Compare(base Config, modes []core.Mode) ([]*Result, error) {
	results := make([]*Result, 0, len(modes))
	for _, m := range modes {
		cfg := base
		cfg.Core = retargetMode(base.Core, m)
		r, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: mode %v: %w", m, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// retargetMode rebuilds a core config for a different mode, preserving
// the shared knobs (period, delivery, deadlines, latencies, cache size).
func retargetMode(base core.Config, m core.Mode) core.Config {
	cfg := core.DefaultConfig(m)
	cfg.Delivery = base.Delivery
	cfg.Server.Period = base.Server.Period
	cfg.Server.DeadlineFactor = base.Server.DeadlineFactor
	cfg.Server.ReportLatency = base.Server.ReportLatency
	cfg.Server.SyncDelay = base.Server.SyncDelay
	cfg.Percentile = base.Percentile
	cfg.NaiveK = base.NaiveK
	if m == base.Mode {
		// Keep the caller's overbooking knobs for its own mode.
		cfg.Server.Overbook = base.Server.Overbook
	}
	// The cache size is a device fact, not a mode's overbooking choice.
	cfg.Server.Overbook.CacheCap = base.Server.Overbook.CacheCap
	return cfg
}

// CompareTable renders mode comparison results; the first row is the
// savings baseline.
func CompareTable(title string, results []*Result) *metrics.Table {
	t := metrics.NewTable(title,
		"mode", "delivery", "ad J/user/day", "saving", "hit rate", "SLA viol", "rev loss", "mean k")
	if len(results) == 0 {
		return t
	}
	base := results[0].AdEnergyPerUserDay()
	for _, r := range results {
		t.AddRow(r.Mode.String(), r.Delivery.String(),
			r.AdEnergyPerUserDay(),
			fmt.Sprintf("%.1f%%", metrics.PercentChange(base, r.AdEnergyPerUserDay())),
			fmt.Sprintf("%.1f%%", 100*r.Counters.HitRate()),
			fmt.Sprintf("%.3g%%", 100*r.Ledger.ViolationRate()),
			fmt.Sprintf("%.3g%%", 100*r.Ledger.RevenueLossFrac()),
			fmt.Sprintf("%.2f", r.MeanReplication()))
	}
	return t
}
