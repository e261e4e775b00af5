// Package energy reproduces the paper's measurement study: it replays a
// user's foreground app traffic and in-app ad downloads through the
// radio energy model and attributes joules to "the app" versus "its
// ads", per app and per population. This regenerates the paper's
// headline measurement that in-app advertising accounts for ~65% of the
// communication energy (~23% of total energy) of top free apps.
package energy

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// AdBytes is the size of one ad download, the creative plus HTTP
// overhead; mobile banner ads in the paper's era were a few KB. The
// measurement study, the simulator's radios and experiment F1 all
// charge it.
const AdBytes int64 = 2048

// Config parameterizes a measurement run.
type Config struct {
	Profile radio.Profile

	// RefreshInterval is the ad rotation period while an app is in the
	// foreground (Microsoft Ad SDK default: 30 s).
	RefreshInterval time.Duration

	// DevicePowerW approximates non-network foreground power
	// (screen + CPU) so that "ad share of *total* energy" is meaningful.
	DevicePowerW float64

	// ServeAdsLocally simulates the prefetch endpoint: slots are filled
	// from a local cache, so ad slots generate no network transfers.
	// Used to measure the pure ad *download* overhead by differencing.
	ServeAdsLocally bool
}

// DefaultConfig returns the measurement-study configuration: 3G, 2 KB
// ads refreshed every 30 s, 1 W foreground device power.
func DefaultConfig() Config {
	return Config{
		Profile:         radio.Profile3G(),
		RefreshInterval: 30 * time.Second,
		DevicePowerW:    1.0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.RefreshInterval <= 0 {
		return fmt.Errorf("energy: RefreshInterval must be positive, got %v", c.RefreshInterval)
	}
	if c.DevicePowerW < 0 {
		return fmt.Errorf("energy: negative DevicePowerW %v", c.DevicePowerW)
	}
	return nil
}

// AppEnergy is the attributed energy of one app across a measurement.
type AppEnergy struct {
	App         trace.App
	AppCommJ    float64 // the app's own traffic (incl. attributed tails)
	AdCommJ     float64 // ad downloads (incl. attributed tails)
	DeviceJ     float64 // screen/CPU while in foreground
	Sessions    int
	AdDownloads int64
}

// CommJ returns the app's total communication energy.
func (a AppEnergy) CommJ() float64 { return a.AppCommJ + a.AdCommJ }

// TotalJ returns the app's total energy.
func (a AppEnergy) TotalJ() float64 { return a.CommJ() + a.DeviceJ }

// AdShareOfComm returns the fraction of communication energy spent on ads.
func (a AppEnergy) AdShareOfComm() float64 { return metrics.Ratio(a.AdCommJ, a.CommJ()) }

// AdShareOfTotal returns the fraction of total energy spent on ads.
func (a AppEnergy) AdShareOfTotal() float64 { return metrics.Ratio(a.AdCommJ, a.TotalJ()) }

// Report aggregates a measurement across apps.
type Report struct {
	Apps []AppEnergy // indexed by AppID
}

// Totals sums all apps into one AppEnergy (its App field is zero).
func (r *Report) Totals() AppEnergy {
	var t AppEnergy
	for _, a := range r.Apps {
		t.AppCommJ += a.AppCommJ
		t.AdCommJ += a.AdCommJ
		t.DeviceJ += a.DeviceJ
		t.Sessions += a.Sessions
		t.AdDownloads += a.AdDownloads
	}
	return t
}

// Merge accumulates another report (same catalog) into r.
func (r *Report) Merge(o *Report) {
	if len(r.Apps) == 0 {
		r.Apps = make([]AppEnergy, len(o.Apps))
		copy(r.Apps, o.Apps)
		return
	}
	for i := range o.Apps {
		r.Apps[i].App = o.Apps[i].App
		r.Apps[i].AppCommJ += o.Apps[i].AppCommJ
		r.Apps[i].AdCommJ += o.Apps[i].AdCommJ
		r.Apps[i].DeviceJ += o.Apps[i].DeviceJ
		r.Apps[i].Sessions += o.Apps[i].Sessions
		r.Apps[i].AdDownloads += o.Apps[i].AdDownloads
	}
}

// transferEvent is one network transfer to replay.
type transferEvent struct {
	at    simclock.Time
	bytes int64
	owner radio.Owner
	isAd  bool
	app   trace.AppID
}

// MeasureUser replays one user's trace and returns the per-app energy
// attribution.
func MeasureUser(u *trace.User, cat *trace.Catalog, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	events := buildEvents(u, cat, cfg)
	r := radio.New(cfg.Profile)
	for _, ev := range events {
		r.Transfer(ev.at, ev.bytes, ev.owner)
	}
	r.Flush()

	rep := &Report{Apps: make([]AppEnergy, cat.Len())}
	for i := range rep.Apps {
		app := cat.App(trace.AppID(i))
		rep.Apps[i].App = app
		appUse := r.UsageOf(appOwner(app.ID))
		adUse := r.UsageOf(adOwner(app.ID))
		rep.Apps[i].AppCommJ = appUse.TotalJ()
		rep.Apps[i].AdCommJ = adUse.TotalJ()
		rep.Apps[i].AdDownloads = adUse.Transfers
	}
	for _, s := range u.Sessions {
		rep.Apps[int(s.App)].Sessions++
		rep.Apps[int(s.App)].DeviceJ += cfg.DevicePowerW * s.Duration.Seconds()
	}
	return rep, nil
}

// MeasurePopulation replays every user and merges the reports.
func MeasurePopulation(p *trace.Population, cat *trace.Catalog, cfg Config) (*Report, error) {
	var total Report
	for _, u := range p.Users {
		rep, err := MeasureUser(u, cat, cfg)
		if err != nil {
			return nil, err
		}
		total.Merge(rep)
	}
	return &total, nil
}

func buildEvents(u *trace.User, cat *trace.Catalog, cfg Config) []transferEvent {
	var events []transferEvent
	for _, s := range u.Sessions {
		app := cat.App(s.App)
		// App startup content fetch.
		if app.StartupBytes > 0 {
			events = append(events, transferEvent{
				at: s.Start, bytes: app.StartupBytes, owner: appOwner(app.ID), app: app.ID,
			})
		}
		// Periodic app refreshes while in foreground.
		if app.RefreshEverySec > 0 && app.RefreshBytes > 0 {
			step := time.Duration(app.RefreshEverySec * float64(time.Second))
			for at := s.Start.Add(step); at.Before(s.End()); at = at.Add(step) {
				events = append(events, transferEvent{
					at: at, bytes: app.RefreshBytes, owner: appOwner(app.ID), app: app.ID,
				})
			}
		}
		// Ad downloads at every slot (unless served from a local cache).
		if app.AdSupported && !cfg.ServeAdsLocally {
			for _, at := range trace.SlotsOfSession(s, cfg.RefreshInterval) {
				events = append(events, transferEvent{
					at: at, bytes: AdBytes, owner: adOwner(app.ID), isAd: true, app: app.ID,
				})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

func appOwner(id trace.AppID) radio.Owner { return radio.Owner(fmt.Sprintf("app:%d", id)) }
func adOwner(id trace.AppID) radio.Owner  { return radio.Owner(fmt.Sprintf("ads:%d", id)) }

// Table1 renders the per-app measurement as the paper's Table 1: energy
// per app with the ad share of communication and total energy, sorted by
// total energy, with population-level aggregate in the footer.
func Table1(rep *Report) *metrics.Table {
	t := metrics.NewTable(
		"T1: ad energy share in top free apps",
		"app", "category", "sessions", "comm J", "ad J", "ad% of comm", "ad% of total")
	apps := make([]AppEnergy, 0, len(rep.Apps))
	for _, a := range rep.Apps {
		if a.Sessions > 0 {
			apps = append(apps, a)
		}
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].TotalJ() > apps[j].TotalJ() })
	for _, a := range apps {
		t.AddRow(a.App.Name, string(a.App.Category), a.Sessions,
			a.CommJ(), a.AdCommJ,
			fmt.Sprintf("%.1f%%", 100*a.AdShareOfComm()),
			fmt.Sprintf("%.1f%%", 100*a.AdShareOfTotal()))
	}
	tot := rep.Totals()
	t.AddNote("aggregate: ads are %.1f%% of communication energy, %.1f%% of total energy",
		100*tot.AdShareOfComm(), 100*tot.AdShareOfTotal())
	return t
}
