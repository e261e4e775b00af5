package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func oneAppCatalog(app trace.App) *trace.Catalog {
	return trace.NewCatalog([]trace.App{app})
}

func singleSessionUser(dur time.Duration) *trace.User {
	return &trace.User{ID: 0, Sessions: []trace.Session{
		{App: 0, Start: simclock.At(time.Minute), Duration: dur},
	}}
}

func TestMeasureUserAttribution(t *testing.T) {
	cat := oneAppCatalog(trace.App{Name: "quietGame", AdSupported: true, StartupBytes: 8 << 10})
	u := singleSessionUser(95 * time.Second) // 4 ad slots at 30 s refresh
	cfg := DefaultConfig()
	rep, err := MeasureUser(u, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Apps[0]
	if a.Sessions != 1 {
		t.Fatalf("sessions=%d", a.Sessions)
	}
	if a.AdDownloads != 4 {
		t.Fatalf("ad downloads=%d want 4", a.AdDownloads)
	}
	if a.AppCommJ <= 0 || a.AdCommJ <= 0 {
		t.Fatalf("missing attribution: %+v", a)
	}
	if a.DeviceJ != 95 { // 1 W x 95 s
		t.Fatalf("DeviceJ=%v want 95", a.DeviceJ)
	}
	// For a quiet app with 30 s ad refresh on 3G, ads dominate comm energy.
	if a.AdShareOfComm() < 0.5 {
		t.Fatalf("ad share of comm %.2f, expected ads to dominate a quiet app", a.AdShareOfComm())
	}
	if a.AdShareOfTotal() <= 0 || a.AdShareOfTotal() >= 1 {
		t.Fatalf("ad share of total out of range: %v", a.AdShareOfTotal())
	}
}

func TestServeAdsLocallyRemovesAdEnergy(t *testing.T) {
	cat := oneAppCatalog(trace.App{Name: "g", AdSupported: true, StartupBytes: 8 << 10})
	u := singleSessionUser(5 * time.Minute)
	cfg := DefaultConfig()
	withAds, err := MeasureUser(u, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServeAdsLocally = true
	without, err := MeasureUser(u, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if without.Apps[0].AdCommJ != 0 || without.Apps[0].AdDownloads != 0 {
		t.Fatalf("local serving still downloaded ads: %+v", without.Apps[0])
	}
	if without.Totals().CommJ() >= withAds.Totals().CommJ() {
		t.Fatal("removing ad downloads did not reduce communication energy")
	}
}

// The tail-sharing subtlety: with a 30 s ad refresh on 3G the radio never
// reaches full sleep between ads, so per-ad energy is below the isolated
// cost but way above pure transmission.
func TestAdEnergyBetweenBatchedAndIsolated(t *testing.T) {
	cat := oneAppCatalog(trace.App{Name: "g", AdSupported: true})
	u := singleSessionUser(10 * time.Minute)
	cfg := DefaultConfig()
	rep, err := MeasureUser(u, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Apps[0]
	perAd := a.AdCommJ / float64(a.AdDownloads)
	iso := cfg.Profile.IsolatedTransferEnergy(AdBytes)
	xferOnly := cfg.Profile.ActivePower * cfg.Profile.TransferDuration(AdBytes).Seconds()
	if perAd <= xferOnly*2 || perAd > iso+1e-9 {
		t.Fatalf("per-ad %.3fJ should be in (%.3f, %.3f]", perAd, xferOnly*2, iso)
	}
}

func TestWiFiAdsCheap(t *testing.T) {
	cat := oneAppCatalog(trace.App{Name: "g", AdSupported: true})
	u := singleSessionUser(10 * time.Minute)
	cfg3g := DefaultConfig()
	cfgWifi := DefaultConfig()
	cfgWifi.Profile = radio.ProfileWiFi()
	rep3g, err := MeasureUser(u, cat, cfg3g)
	if err != nil {
		t.Fatal(err)
	}
	repWifi, err := MeasureUser(u, cat, cfgWifi)
	if err != nil {
		t.Fatal(err)
	}
	if repWifi.Totals().AdCommJ*5 > rep3g.Totals().AdCommJ {
		t.Fatalf("WiFi ads should be >5x cheaper: wifi=%.2f 3g=%.2f",
			repWifi.Totals().AdCommJ, rep3g.Totals().AdCommJ)
	}
}

func TestMeasurePopulationMatchesSum(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Users = 8
	cfg.Days = 2
	pop, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := trace.NewCatalog(trace.DefaultCatalog())
	ecfg := DefaultConfig()
	popRep, err := MeasurePopulation(pop, cat, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum Report
	for _, u := range pop.Users {
		r, err := MeasureUser(u, cat, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		sum.Merge(r)
	}
	if math.Abs(popRep.Totals().TotalJ()-sum.Totals().TotalJ()) > 1e-6 {
		t.Fatalf("population %.4f != sum of users %.4f", popRep.Totals().TotalJ(), sum.Totals().TotalJ())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RefreshInterval = 0 },
		func(c *Config) { c.DevicePowerW = -1 },
		func(c *Config) { c.Profile = radio.Profile{} },
	}
	u := singleSessionUser(time.Minute)
	cat := oneAppCatalog(trace.App{Name: "g", AdSupported: true})
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := MeasureUser(u, cat, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAppRefreshTrafficCounted(t *testing.T) {
	chatty := oneAppCatalog(trace.App{
		Name: "chatty", AdSupported: false,
		StartupBytes: 10 << 10, RefreshBytes: 5 << 10, RefreshEverySec: 10,
	})
	u := singleSessionUser(65 * time.Second)
	rep, err := MeasureUser(u, chatty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Apps[0]
	if a.AdCommJ != 0 {
		t.Fatal("non-ad app should have zero ad energy")
	}
	// Startup + 6 refreshes (at 10..60 s into a 65 s session).
	startupOnly := oneAppCatalog(trace.App{Name: "quiet", StartupBytes: 10 << 10})
	rep2, err := MeasureUser(u, startupOnly, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.AppCommJ <= rep2.Apps[0].AppCommJ {
		t.Fatal("periodic refresh traffic not reflected in energy")
	}
}

func TestTable1Rendering(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Users = 5
	cfg.Days = 2
	pop, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := trace.NewCatalog(trace.DefaultCatalog())
	rep, err := MeasurePopulation(pop, cat, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Table1(rep).String()
	if s == "" {
		t.Fatal("empty table")
	}
}

func TestReportTotalsAndShares(t *testing.T) {
	var r Report
	r.Apps = []AppEnergy{
		{AppCommJ: 10, AdCommJ: 30, DeviceJ: 60, Sessions: 2, AdDownloads: 5},
		{AppCommJ: 5, AdCommJ: 5, DeviceJ: 10, Sessions: 1, AdDownloads: 2},
	}
	tot := r.Totals()
	if tot.CommJ() != 50 || tot.TotalJ() != 120 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	if got := tot.AdShareOfComm(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("ad share of comm %v", got)
	}
	if got := tot.AdShareOfTotal(); math.Abs(got-35.0/120.0) > 1e-12 {
		t.Fatalf("ad share of total %v", got)
	}
	var zero AppEnergy
	if zero.AdShareOfComm() != 0 || zero.AdShareOfTotal() != 0 {
		t.Fatal("zero-energy shares should be 0")
	}
}
