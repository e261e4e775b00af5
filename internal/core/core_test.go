package core

import "testing"

func TestModeStrings(t *testing.T) {
	if ModeOnDemand.String() != "on-demand" || ModeNaiveBulk.String() != "naive-bulk" ||
		ModePredictive.String() != "predictive" || ModeOracle.String() != "oracle" {
		t.Fatal("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode name wrong")
	}
	if DeliverScheduled.String() != "scheduled" || DeliverPiggyback.String() != "piggyback" {
		t.Fatal("delivery names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(ModePredictive).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(ModePredictive)
	bad.Percentile = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("bad percentile accepted")
	}
	bad = DefaultConfig(ModeNaiveBulk)
	bad.NaiveK = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad NaiveK accepted")
	}
	bad = DefaultConfig(ModeOnDemand)
	bad.CacheCap = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad CacheCap accepted")
	}
	bad = DefaultConfig(ModeOnDemand)
	bad.Server.Period = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad server config accepted")
	}
}

func TestConfigRescue(t *testing.T) {
	for _, m := range []Mode{ModeOnDemand, ModeNaiveBulk, ModePredictive, ModeOracle} {
		cfg := DefaultConfig(m)
		if got, want := cfg.Rescue(), m != ModeOnDemand; got != want {
			t.Errorf("%v: Rescue() = %v, want %v", m, got, want)
		}
		cfg.NoRescue = true
		if cfg.Rescue() {
			t.Errorf("%v with NoRescue: Rescue() = true", m)
		}
	}
}
