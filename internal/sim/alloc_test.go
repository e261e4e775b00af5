package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
)

// TestRunAllocationsPerSlot pins exactly how many objects one sim.Run
// allocates at quickConfig's size — set-up (traces, engine, devices)
// and every slot served — in on-demand mode, where every slot is an
// on-demand sale, and in predictive mode, where most are cache hits.
// The count is read from the runtime's malloc counter around a second
// run with the collector off: a collection between the two reads (or
// a sync.Pool it empties) would add allocations of its own. What is
// left varies by a few objects from process to process — a map's hash
// seed is drawn per process and sets how its tables split — and
// mapSlack absorbs that, 0.0015 per slot here. Any larger change, in
// either direction, is a change in what the engine allocates and must
// move the pinned count.
func TestRunAllocationsPerSlot(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const mapSlack = 16
	want := map[core.Mode]uint64{
		core.ModeOnDemand:   3640,
		core.ModePredictive: 5817,
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, m := range []core.Mode{core.ModeOnDemand, core.ModePredictive} {
		cfg := quickConfig(m)
		run(t, cfg) // warm lazily built package state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := run(t, cfg)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got+mapSlack < want[m] || got > want[m]+mapSlack {
			t.Errorf("%v: sim.Run allocates %d objects, %.3f per slot over %d slots; want %d ± %d (%.3f per slot)",
				m, got, float64(got)/float64(r.Counters.SlotsServed), r.Counters.SlotsServed,
				want[m], mapSlack, float64(want[m])/float64(r.Counters.SlotsServed))
		}
	}
}
