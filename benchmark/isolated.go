package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/overbook"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/wal"
)

// timeCall runs fn(n) — n back-to-back calls — in batches for about
// budget and returns the median nanoseconds per call. prep, if not nil,
// runs untimed before every batch.
func timeCall(budget time.Duration, n int, prep func(), fn func(n int)) float64 {
	deadline := time.Now().Add(budget)
	var per []float64
	for len(per) < 3 || time.Now().Before(deadline) {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn(n)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// constPredictor always forecasts the same slot count.
type constPredictor float64

func (constPredictor) Name() string                { return "const" }
func (constPredictor) Observe(predict.Period, int) {}
func (c constPredictor) Predict(predict.Period) predict.Estimate {
	return predict.Estimate{Slots: float64(c), Mean: float64(c)}
}

// The open book paper_inproc's engine scans on a top-up: 600 users, ≈10
// impressions sold per user per 4 h period at the predictive operating
// point (the workload's own adserver.sold_per_device_day, 57.7, ÷ 6).
const (
	inprocUsers     = 600
	inprocSoldPerUP = 10
)

func isolatedEngine(seed int64, cfg adserver.Config, n int, mk func(id int) predict.Predictor) (*adserver.Server, error) {
	demand := auction.DefaultDemand()
	demand.BudgetImpressions = 1 << 40
	ex, err := auction.NewExchange(demand.Generate(simclock.NewRand(seed)), 0.0002)
	if err != nil {
		return nil, err
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return adserver.New(cfg, ex, ids, mk, nil)
}

// trainedHistogram is the production predictor with a week of history.
func trainedHistogram(r *simclock.Rand, id int) predict.Predictor {
	ph := predict.NewPercentileHistogram(0.9)
	rr := r.StreamN("client", id)
	for day := 0; day < 7; day++ {
		for of := 0; of < 6; of++ {
			ph.Observe(predict.Period{Index: day*6 + of, OfDay: of}, rr.Intn(12))
		}
	}
	return ph
}

// runIsolated times single calls into each layer, source (c) of the
// per-layer list. Each entry gets an equal share of budget.
func runIsolated(seed int64, budget time.Duration, scratch string) (map[string]float64, error) {
	const entries = 19
	share := budget / entries
	vals := map[string]float64{}
	rng := simclock.NewRand(seed).Stream("isolated")
	period := 4 * time.Hour

	// adserver.topup_us: one top-up scan over a predictive open book of
	// paper_inproc's size.
	{
		cfg := adserver.DefaultConfig()
		srv, err := isolatedEngine(seed, cfg, inprocUsers, func(int) predict.Predictor { return constPredictor(inprocSoldPerUP) })
		if err != nil {
			return nil, err
		}
		p := predict.Period{Index: 0}
		srv.StartPeriod(0, p)
		if srv.OpenBook() == 0 {
			return nil, fmt.Errorf("isolated top-up: nothing sold")
		}
		c := 0
		vals["adserver.topup_us"] = timeCall(share, 200, nil, func(n int) {
			for i := 0; i < n; i++ {
				srv.TopUp(simclock.Hour, c%inprocUsers)
				c++
			}
		}) / 1e3
	}

	// Period rounds: start (naive k=1 and predictive) and end, per client.
	{
		const n = 2000
		naive := adserver.DefaultConfig()
		naive.Overbook.FixedReplicas = 1
		naive.Overbook.AdmissionEpsilon = 0.5
		srvN, err := isolatedEngine(seed, naive, n, func(int) predict.Predictor { return constPredictor(4) })
		if err != nil {
			return nil, err
		}
		srvP, err := isolatedEngine(seed, adserver.DefaultConfig(), n, func(id int) predict.Predictor { return trainedHistogram(rng, id) })
		if err != nil {
			return nil, err
		}
		periodRounds := func(srv *adserver.Server, budget time.Duration) (startNS, endNS float64) {
			var starts, ends []float64
			deadline := time.Now().Add(budget)
			for i := 0; len(starts) < 3 || time.Now().Before(deadline); i++ {
				now := simclock.Time(i) * simclock.Time(period)
				p := predict.PeriodOf(now, period)
				t0 := time.Now()
				srv.StartPeriod(now, p)
				t1 := time.Now()
				for c := 0; c < n; c++ {
					srv.ObserveSlot(c)
				}
				t2 := time.Now()
				srv.EndPeriod(now+simclock.Time(period), p)
				starts = append(starts, float64(t1.Sub(t0).Nanoseconds())/n)
				ends = append(ends, float64(time.Since(t2).Nanoseconds())/n)
			}
			return median(starts), median(ends)
		}
		s, e := periodRounds(srvN, 2*share)
		vals["adserver.start_period_us_per_client"] = s / 1e3
		vals["adserver.end_period_us_per_client"] = e / 1e3
		s, _ = periodRounds(srvP, share)
		vals["adserver.start_period_predictive_us_per_client"] = s / 1e3
	}

	// overbook.plan_one_ns: one replica-placement decision.
	{
		cfg := overbook.DefaultConfig()
		var planner *overbook.Planner
		var perr error
		prep := func() {
			cands := make([]*overbook.Candidate, inprocUsers)
			for i := range cands {
				cands[i] = &overbook.Candidate{Client: i, PredictedSlots: 12, ExpectedSlots: 8, NoShowProb: 0.1 + 0.001*float64(i%200)}
			}
			planner, perr = overbook.NewPlanner(cfg, cands)
		}
		prep()
		if perr != nil {
			return nil, perr
		}
		vals["overbook.plan_one_ns"] = timeCall(share, 1000, prep, func(n int) {
			for i := 0; i < n; i++ {
				planner.PlanOne()
			}
		})
	}

	// auction.sell_ns: one impression sold in the exchange.
	{
		demand := auction.DefaultDemand()
		demand.BudgetImpressions = 1 << 40
		ex, err := auction.NewExchange(demand.Generate(simclock.NewRand(seed)), 0.0002)
		if err != nil {
			return nil, err
		}
		hints := []trace.Category{trace.CatGame, trace.CatNews}
		now := simclock.Time(0)
		vals["auction.sell_ns"] = timeCall(share, 1000, func() {
			// Expire what the last batch sold so the open set stays small.
			now += simclock.Time(2 * period)
			ex.SweepExpired(now)
		}, func(n int) {
			ex.SellSlots(now, n, hints, period)
		})
	}

	// predict.observe_predict_ns: train on one period, forecast the next.
	{
		ph := trainedHistogram(rng, 0)
		i := 0
		vals["predict.observe_predict_ns"] = timeCall(share, 1000, nil, func(n int) {
			for k := 0; k < n; k++ {
				p := predict.Period{Index: 42 + i, OfDay: i % 6}
				ph.Observe(p, i%9)
				ph.Predict(p)
				i++
			}
		})
	}

	// tenant.admit_ns: one token-bucket admission.
	{
		reg, err := tenant.NewRegistry(1, []tenant.Config{
			{ID: "a", Lo: 0, Hi: 1000, RatePerSec: 1e9, Burst: 1e9},
			{ID: "b", Lo: 1000, Hi: 2000, RatePerSec: 1e9, Burst: 1e9},
		})
		if err != nil {
			return nil, err
		}
		now := int64(0)
		vals["tenant.admit_ns"] = timeCall(share, 10000, nil, func(n int) {
			for i := 0; i < n; i++ {
				now += 1000
				reg.Admit(i%2000, now, 1)
			}
		})
	}

	// trace.user_at_us: one lazily derived device trace (the streaming
	// replay derives one per wake-up).
	{
		tc := trace.DefaultGenConfig()
		tc.Users, tc.Days, tc.Seed = 6000, 1, seed
		st, err := trace.NewStream(tc)
		if err != nil {
			return nil, err
		}
		id := 0
		vals["trace.user_at_us"] = timeCall(share, 200, nil, func(n int) {
			for i := 0; i < n; i++ {
				st.UserAt(id % 6000)
				id++
			}
		}) / 1e3
	}

	// radio.transfer_ns: one transfer charged through the energy model.
	{
		r := radio.New(radio.Profile3G())
		at := simclock.Time(0)
		vals["radio.transfer_ns"] = timeCall(share, 10000, nil, func(n int) {
			for i := 0; i < n; i++ {
				at += 7 * simclock.Second
				r.Transfer(at, 2048, "ads")
			}
		})
	}

	// client.cache_take_ns: stage one ad and serve it from the cache.
	{
		dev, err := client.NewDevice(1, 64)
		if err != nil {
			return nil, err
		}
		never := func(auction.ImpressionID) bool { return false }
		id := auction.ImpressionID(0)
		ads := make([]client.CachedAd, 1)
		vals["client.cache_take_ns"] = timeCall(share, 10000, nil, func(n int) {
			for i := 0; i < n; i++ {
				id++
				ads[0] = client.CachedAd{ID: id, Deadline: simclock.Day}
				dev.Assign(ads, true)
				dev.ServeSlot(simclock.Hour, never)
			}
		})
	}

	// obs: the serving middleware around a no-op handler, and one
	// histogram observation.
	{
		reg := obs.NewRegistry()
		h := obs.Middleware(reg, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), "/v1/slot")
		req, err := http.NewRequest(http.MethodPost, "http://bench.invalid/v1/slot", http.NoBody)
		if err != nil {
			return nil, err
		}
		w := &memResponse{header: make(http.Header)}
		vals["obs.middleware_ns"] = timeCall(share, 10000, nil, func(n int) {
			for i := 0; i < n; i++ {
				h.ServeHTTP(w, req)
			}
		})
		hist := reg.Histogram("bench_ns")
		vals["obs.histogram_observe_ns"] = timeCall(share, 100000, nil, func(n int) {
			for i := 0; i < n; i++ {
				hist.Observe(int64(i) * 37)
			}
		})
	}

	// simclock.wakeheap_pushpop_ns: one reschedule on a 4096-device heap.
	{
		var h simclock.WakeHeap
		for i := 0; i < 4096; i++ {
			h.Push(simclock.Wake{At: simclock.Time(rng.Intn(1 << 30)), ID: i})
		}
		vals["simclock.wakeheap_pushpop_ns"] = timeCall(share, 10000, nil, func(n int) {
			for i := 0; i < n; i++ {
				wk := h.Pop()
				wk.At += simclock.Time(1 << 20)
				h.Push(wk)
			}
		})
	}

	// wal: append with and without fsync, record size, recovery, snapshot.
	{
		body := []byte(`{"client":1234,"now_ns":3600000000000,"ops":[{"op":"slot","key":"c1234-000017"}]}`)
		open := func(noSync bool) (*wal.Log, string, error) {
			dir, err := os.MkdirTemp(scratch, "isolated-wal-")
			if err != nil {
				return nil, "", err
			}
			l, err := wal.Open(dir, wal.Options{NoSync: noSync})
			if err != nil {
				os.RemoveAll(dir)
				return nil, "", err
			}
			if _, err := l.Recover(nil, func(wal.Record) error { return nil }); err != nil {
				l.Close()
				os.RemoveAll(dir)
				return nil, "", err
			}
			return l, dir, nil
		}
		var appendErr error
		appendN := func(l *wal.Log) func(n int) {
			return func(n int) {
				for i := 0; i < n; i++ {
					if err := l.Append(0, "slot", "c1234-000017", body); err != nil {
						appendErr = err
					}
				}
			}
		}

		l, dir, err := open(true)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		vals["wal.append_nosync_us"] = timeCall(share, 2000, nil, appendN(l)) / 1e3
		st := l.Stats()
		vals["wal.bytes_per_record"] = ratio(float64(st.Bytes), float64(st.Appends))
		if err := l.Close(); err != nil {
			return nil, err
		}
		// Recovery replays the log just written.
		l, err = wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rs, err := l.Recover(nil, func(wal.Record) error { return nil })
		if err != nil || rs.Replayed == 0 {
			l.Close()
			return nil, fmt.Errorf("isolated wal recovery: replayed %d records: %v", rs.Replayed, err)
		}
		vals["wal.recover_us_per_record"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(rs.Replayed)
		// Snapshot: an 8 MiB state document through the checkpoint path.
		state := make([]byte, 8<<20)
		var snapErr error
		snapNS := timeCall(share, 1, nil, func(int) {
			if err := l.Snapshot(func(w io.Writer) error { _, err := w.Write(state); return err }); err != nil {
				snapErr = err
			}
		})
		l.Close()
		if snapErr != nil {
			return nil, snapErr
		}
		vals["wal.snapshot_mb_per_s"] = float64(len(state)) / (1 << 20) / (snapNS / 1e9)

		lf, dirF, err := open(false)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dirF)
		vals["wal.append_fsync_us"] = timeCall(share, 8, nil, appendN(lf)) / 1e3
		lf.Close()
		if appendErr != nil {
			return nil, appendErr
		}
	}
	return vals, nil
}
