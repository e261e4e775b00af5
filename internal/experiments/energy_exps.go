package experiments

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func init() {
	register("t1", "ad energy share in top free apps (measurement study)", runT1)
	register("f1", "energy per ad download vs refresh interval and radio tech", runF1)
}

// runT1 reproduces the measurement study: replay the population's app
// and ad traffic on 3G and attribute energy. Headline: ads are ~65% of
// communication energy, ~23% of total energy.
func runT1(s Scale) (*metrics.Table, error) {
	pop, err := trace.Generate(s.traceConfig())
	if err != nil {
		return nil, err
	}
	cat := trace.NewCatalog(trace.DefaultCatalog())
	rep, err := energy.MeasurePopulation(pop, cat, energy.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return energy.Table1(rep), nil
}

// runF1 isolates the tail-energy effect: the energy cost of one ad
// download as a function of the refresh interval, per radio technology.
// The replay uses a long always-on session with only ad traffic so the
// cost per ad includes exactly the promotion/tail sharing the interval
// allows.
func runF1(Scale) (*metrics.Table, error) {
	const ads = 200
	intervals := []time.Duration{5 * time.Second, 10 * time.Second, 30 * time.Second,
		time.Minute, 2 * time.Minute, 5 * time.Minute}
	profiles := []radio.Profile{radio.Profile3G(), radio.ProfileLTE(), radio.ProfileWiFi()}

	t := metrics.NewTable(
		"F1: energy per ad download (J) vs refresh interval",
		"interval", "3G", "LTE", "WiFi", "3G tail share")
	for _, iv := range intervals {
		row := make([]any, 0, 5)
		row = append(row, iv.String())
		var tailShare float64
		for pi, p := range profiles {
			r := radio.New(p)
			at := simclock.Time(0)
			for i := 0; i < ads; i++ {
				r.Transfer(at, energy.AdBytes, "ads")
				at = at.Add(iv)
			}
			r.Flush()
			u := r.UsageOf("ads")
			row = append(row, u.TotalJ()/ads)
			if pi == 0 {
				tailShare = metrics.Ratio(u.TailJ, u.TotalJ())
			}
		}
		row = append(row, fmt.Sprintf("%.0f%%", 100*tailShare))
		t.AddRow(row...)
	}
	t.AddNote("%d ads of %d B each; per-ad cost includes promotion and (truncated) tail", ads, energy.AdBytes)
	t.AddNote("batched bulk download of %d ads on 3G: %.2f J/ad", 10,
		radio.Profile3G().BatchedTransferEnergy(energy.AdBytes, 10)/10)
	return t, nil
}
