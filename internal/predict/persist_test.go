package predict

import (
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	ph := NewPercentileHistogram(0.85)
	for i := 0; i < 50; i++ {
		ph.Observe(Period{OfDay: i % 6, Weekend: i%13 == 0}, i%9)
	}
	data, err := ph.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPercentileHistogram(0.5) // different q: must be overwritten
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Percentile() != 0.85 {
		t.Fatalf("percentile %v", restored.Percentile())
	}
	// Identical predictions and distributions in every context.
	for ofDay := 0; ofDay < 6; ofDay++ {
		for _, weekend := range []bool{false, true} {
			p := Period{OfDay: ofDay, Weekend: weekend}
			a, b := ph.Predict(p), restored.Predict(p)
			if a != b {
				t.Fatalf("context %+v: %+v vs %+v", p, a, b)
			}
			for k := 0; k < 10; k++ {
				if ph.CDF(p).ProbAtMost(k) != restored.CDF(p).ProbAtMost(k) {
					t.Fatalf("context %+v ProbAtMost(%d) differs", p, k)
				}
			}
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	ph := NewPercentileHistogram(0.9)
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"q":2,"contexts":[]}`),
		[]byte(`{"q":0.9,"contexts":[{"of_day":0,"weekend":false,"counts":[-1]}]}`),
	}
	for i, data := range cases {
		if err := ph.Restore(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: snapshot/restore is lossless for arbitrary observation
// streams.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ph := NewPercentileHistogram(0.9)
		for i, v := range raw {
			ph.Observe(Period{OfDay: i % 4, Weekend: v%2 == 0}, int(v%20))
		}
		data, err := ph.Snapshot()
		if err != nil {
			return false
		}
		restored := NewPercentileHistogram(0.9)
		if err := restored.Restore(data); err != nil {
			return false
		}
		for ofDay := 0; ofDay < 4; ofDay++ {
			for _, wk := range []bool{false, true} {
				p := Period{OfDay: ofDay, Weekend: wk}
				if ph.Predict(p) != restored.Predict(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
