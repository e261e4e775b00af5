package predict

import "testing"

// FuzzRestore hardens the predictor snapshot loader: arbitrary bytes
// must never panic, and an accepted snapshot must produce a predictor
// whose estimates respect the Estimate invariants.
func FuzzRestore(f *testing.F) {
	ph := NewPercentileHistogram(0.9)
	for i := 0; i < 20; i++ {
		ph.Observe(Period{OfDay: i % 6, Weekend: i%2 == 0}, i%7)
	}
	good, err := ph.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"q":0.5,"contexts":[]}`))
	f.Add([]byte(`{"q":0.9,"contexts":[{"of_day":0,"weekend":false,"counts":[1,2,3]}]}`))
	f.Add([]byte(`{"q":2}`))
	f.Add([]byte(`{"q":0.9,"contexts":[{"counts":[-4]}]}`))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPercentileHistogram(0.9)
		if err := p.Restore(data); err != nil {
			return
		}
		if q := p.Percentile(); q <= 0 || q >= 1 {
			t.Fatalf("accepted snapshot with percentile %v", q)
		}
		for ofDay := 0; ofDay < 8; ofDay++ {
			for _, wk := range []bool{false, true} {
				per := Period{OfDay: ofDay, Weekend: wk}
				est := p.Predict(per)
				if est.Slots < 0 || est.Mean < 0 || est.Var < 0 ||
					est.NoShowProb < 0 || est.NoShowProb > 1 {
					t.Fatalf("restored predictor violates Estimate invariants: %+v", est)
				}
				prev := -1.0
				for k := -1; k < 8; k++ {
					q := p.CDF(per).ProbAtMost(k)
					if q < prev || q < 0 || q > 1 {
						t.Fatalf("restored CDF not monotone/in-range at k=%d: %v", k, q)
					}
					prev = q
				}
			}
		}
	})
}
