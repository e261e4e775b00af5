package adprefetch_test

import (
	"bytes"
	"strings"
	"testing"

	adprefetch "repro"
)

// These tests exercise the public facade exactly the way README tells a
// downstream user to — the integration surface of the whole library.

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := adprefetch.DefaultSimConfig(adprefetch.ModePredictive)
	cfg.TraceCfg.Users = 30
	cfg.TraceCfg.Days = 6
	cfg.WarmupDays = 3
	res, err := adprefetch.RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdEnergyJ <= 0 || res.Counters.SlotsServed == 0 {
		t.Fatalf("inert result: %+v", res)
	}
	if !strings.Contains(res.String(), "predictive") {
		t.Fatalf("result string: %s", res)
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	cfg := adprefetch.DefaultTraceConfig()
	cfg.Users = 10
	cfg.Days = 3
	pop, err := adprefetch.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adprefetch.WriteTrace(&buf, pop); err != nil {
		t.Fatal(err)
	}
	got, err := adprefetch.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSessions() != pop.TotalSessions() {
		t.Fatal("round trip lost sessions")
	}
	tbl := adprefetch.CharacterizeTrace(got, adprefetch.DefaultCatalog(), adprefetch.SlotRefreshDefault)
	if len(tbl.Rows) == 0 {
		t.Fatal("empty characterization")
	}
}

func TestPublicEnergyStudy(t *testing.T) {
	cfg := adprefetch.DefaultTraceConfig()
	cfg.Users = 20
	cfg.Days = 3
	pop, err := adprefetch.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := adprefetch.MeasureEnergy(pop, adprefetch.DefaultCatalog(), adprefetch.DefaultEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals()
	if share := tot.AdShareOfComm(); share < 0.3 || share > 0.95 {
		t.Fatalf("ad share of comm energy %v implausible", share)
	}
	if adprefetch.EnergyTable(rep).CSV() == "" {
		t.Fatal("empty CSV")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := adprefetch.Experiments()
	if len(ids) != 22 {
		t.Fatalf("experiments: %v", ids)
	}
	for _, id := range ids {
		if adprefetch.DescribeExperiment(id) == "" {
			t.Errorf("%s: no description", id)
		}
	}
	if _, err := adprefetch.RunExperiment("bogus", adprefetch.ScaleSmall()); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestPublicCompareModes(t *testing.T) {
	cfg := adprefetch.DefaultSimConfig(adprefetch.ModeOnDemand)
	cfg.TraceCfg.Users = 25
	cfg.TraceCfg.Days = 6
	cfg.WarmupDays = 3
	results, err := adprefetch.CompareModes(cfg,
		[]adprefetch.Mode{adprefetch.ModeOnDemand, adprefetch.ModeOracle})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].AdEnergyJ >= results[0].AdEnergyJ {
		t.Fatal("oracle should beat on-demand")
	}
	tbl := adprefetch.CompareTable("cmp", results)
	if !strings.Contains(tbl.String(), "oracle") {
		t.Fatal("table missing oracle row")
	}
}

func TestPublicRadioProfiles(t *testing.T) {
	for _, p := range []adprefetch.RadioProfile{
		adprefetch.Profile3G(), adprefetch.ProfileLTE(), adprefetch.ProfileWiFi(),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.IsolatedTransferEnergy(2048) <= 0 {
			t.Errorf("%s: no energy", p.Name)
		}
	}
	// The relationship the whole paper rests on.
	g := adprefetch.Profile3G()
	if g.BatchedTransferEnergy(2048, 10) >= 10*g.IsolatedTransferEnergy(2048) {
		t.Fatal("batching must amortize the tail")
	}
}

func TestPublicTimeHelpers(t *testing.T) {
	if adprefetch.At(0) != 0 || adprefetch.Day != 24*adprefetch.Hour {
		t.Fatal("time constants wrong")
	}
	p := adprefetch.PeriodOf(5*adprefetch.Day+adprefetch.Hour, 60*60*1e9)
	if !p.Weekend || p.OfDay != 1 {
		t.Fatalf("period %+v", p)
	}
}
