package sim

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/transport"
)

// RunTransportStream replays the deterministic trace a Config describes
// through the deployable serving path, spoken to by one transport.Device
// per user over real HTTP on a loopback listener. The serving side is
// built in-process as a list of nodes, each a transport.ShardedServer
// over a shard.Pool with its own WAL: one node holding every client on
// Shards shards, reached directly, or Nodes one-shard nodes behind a
// cluster.Router — the same harness, with the same crash, restart and
// settle code, either way. TargetURL drives an external deployment
// instead (see TransportOpts). Period boundaries drive the
// fan-out/fan-in round on the server; within a period, Workers
// goroutines each replay one contiguous id range of clients in (time,
// client id) order with sim.Run's walker, drainDue. Campaign demand is
// instantiated per shard from the same seed (each shard sees the same
// campaign set with a full budget), matching shard.New's
// per-shard-exchange deployment model.
//
// The population is never held in memory. Traces are derived lazily
// from the generator's per-client seeds (trace.Stream): a client's
// timeline is derived at its first wake-up in a period and dropped after
// its last event there. Resident state is what a real fleet would hold
// anyway (one transport.Device per client, the server pool) plus a
// 16-byte wake-heap entry and a 32-byte cursor per client and the
// timelines of clients part-way through a period.
//
// At Workers=1, per-op, on one shard the replay is sim.Run: the same
// ledger, counters, book totals and energy in every mode. At Workers>1
// clients on different workers drift apart in simulated time within a
// period, and the batched wire's write-behind reports arrive later, so
// order-dependent outcomes (rescue, replicas > 1) move: a 40-client
// predictive run billing $21.510 at one worker bills $20.0-20.2 at two
// and $18.5-18.6 at eight, run to run. Monetary results are independent
// of worker, shard and node count, wire mode, and kills or migrations
// ridden out mid-run when per-impression outcomes are order-free:
// FixedReplicas=1, NoRescue, AdmissionEpsilon=0.5 with integral
// per-client means. The differential tiers pin exactly that contract.
//
// Every run reports per-period client-observed load and latency
// quantiles in Result.StreamPeriods, which is how a million-device
// diurnal run surfaces its peak-hour tail. Energy fields are filled
// only with TransportOpts.Energy set.
func RunTransportStream(cfg Config, o TransportOpts) (*Result, error) {
	env, err := newStreamEnv(cfg, o)
	if err != nil {
		return nil, err
	}
	var back serving
	if o.TargetURL != "" {
		back, err = newTargetBackend(env)
	} else {
		back, err = newLocalBackend(env)
	}
	if err != nil {
		return nil, err
	}
	defer back.close()
	res, err := driveStream(env, back)
	if err != nil {
		return nil, err
	}
	if err := back.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// validateTransport checks a config/options pair before anything is
// built or derived.
func validateTransport(cfg Config, o TransportOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if o.Plan != nil {
		if err := o.Plan.Validate(); err != nil {
			return err
		}
	}
	users := cfg.TraceCfg.Users
	if cfg.MaxUsers > 0 && cfg.MaxUsers < users {
		users = cfg.MaxUsers
	}
	switch {
	case cfg.Population != nil:
		return fmt.Errorf("sim: transport replay derives traces lazily from TraceCfg; a supplied Population is not replayed")
	case o.TargetURL != "" && (o.Nodes > 0 || o.WALDir != "" || o.Crashes != nil || o.Plan != nil || len(o.Migrations) > 0):
		return fmt.Errorf("sim: TargetURL drives an external deployment; in-process backend options do not apply")
	case o.TargetURL == "" && o.Nodes == 0 && o.Shards < 1:
		return fmt.Errorf("sim: transport needs at least one shard, got %d", o.Shards)
	case o.Nodes < 0:
		return fmt.Errorf("sim: negative node count %d", o.Nodes)
	case o.Nodes > 0 && o.Shards > 1:
		return fmt.Errorf("sim: cluster nodes each run one shard; got shards=%d with nodes=%d", o.Shards, o.Nodes)
	case cfg.Core.Delivery != core.DeliverScheduled:
		return fmt.Errorf("sim: transport replay supports scheduled delivery only")
	case cfg.ChurnProb > 0 || cfg.ReportLossProb > 0:
		return fmt.Errorf("sim: transport replay does not support failure injection")
	case cfg.WiFiSchedule.Enabled:
		return fmt.Errorf("sim: transport replay charges every transfer to one cellular radio; a WiFi schedule is not replayed")
	case o.BinaryBatch && !o.Batched:
		return fmt.Errorf("sim: BinaryBatch selects the batch envelope's codec; it requires Batched")
	case o.Crashes != nil && o.WALDir == "":
		return fmt.Errorf("sim: a crash schedule requires a WAL directory")
	case len(o.Migrations) > 0 && o.Nodes == 0:
		return fmt.Errorf("sim: migration steps require cluster mode (Nodes > 0)")
	case o.Flood != nil && (o.Flood.Devices < 1 || o.Flood.PerPeriod < 1):
		return fmt.Errorf("sim: a flood spec needs Devices and PerPeriod >= 1")
	case o.Flood != nil && users > FloodClientBase:
		return fmt.Errorf("sim: flood ids start at %d; a population of %d would collide with them", FloodClientBase, users)
	}
	return nil
}

// newStreamEnv prepares the replayEnv. No Population is materialized:
// one parallel init sweep derives each client once to record its first
// wake-up and intern its targeting hints (the server asks for hints
// every period, so those must not cost a trace derivation per ask);
// everything else is derived on demand.
func newStreamEnv(cfg Config, o TransportOpts) (*replayEnv, error) {
	if err := validateTransport(cfg, o); err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	st, err := trace.NewStream(cfg.TraceCfg)
	if err != nil {
		return nil, err
	}
	n := st.Users()
	if cfg.MaxUsers > 0 && cfg.MaxUsers < n {
		n = cfg.MaxUsers
	}
	cat := st.Catalog()
	if cfg.warmupEnd() > st.Span() {
		return nil, fmt.Errorf("sim: warm-up %d days exceeds trace span %v", cfg.WarmupDays, st.Span())
	}
	period := cfg.Core.Server.Period

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}

	env := &replayEnv{
		cfg: cfg, o: o, ids: ids, cat: cat, span: st.Span(), workers: workers,
		stream: st, firstWake: make([]simclock.Time, n),
	}

	// Init sweep: derive each client once, transiently, to learn when it
	// first does anything and which ad categories target it. Hint slices
	// are interned — real populations share a handful of top-category
	// combinations — so the resident hint table is a uint32 per client
	// plus a few dozen small slices, not a map of slices per client.
	comboOf := make([]uint32, n)
	var mu sync.Mutex
	comboIdx := map[[3]trace.Category]uint32{} // topCategoriesOf returns at most 3
	var combos [][]trace.Category
	if err := eachDevice(workers, workers, func(w int) error {
		lo, hi := w*n/workers, (w+1)*n/workers
		for id := lo; id < hi; id++ {
			u := st.UserAt(id)
			env.firstWake[id] = -1
			if tl := buildTimeline(u, cat, cfg.RefreshInterval); len(tl) > 0 {
				env.firstWake[id] = tl[0].at
			}
			top := topCategoriesOf(u, cat)
			var key [3]trace.Category
			copy(key[:], top)
			mu.Lock()
			ci, ok := comboIdx[key]
			if !ok {
				ci = uint32(len(combos))
				comboIdx[key] = ci
				combos = append(combos, top)
			}
			mu.Unlock()
			comboOf[id] = ci
		}
		return nil
	}); err != nil {
		return nil, err
	}

	env.hints = func(id int) []trace.Category {
		if id < 0 || id >= n {
			return nil
		}
		return combos[comboOf[id]]
	}
	env.oracle = func(id int) []int {
		return trace.SlotsPerPeriod(st.UserAt(id), cat, cfg.RefreshInterval, period, env.span)
	}
	tenants := o.Tenants
	env.makePool = func(shards int, members []int) (*shard.Pool, error) {
		rng := simclock.NewRand(cfg.Seed).Stream("sim")
		// The legacy campaign set keeps ids 0..Campaigns-1 and no tenant
		// tag, so a multi-tenant run's aggregate books stay comparable
		// with a single-tenant run's. Each named tenant then gets its own
		// full set from a tenant-keyed stream, ids offset past every set
		// before it. Generation is pure, so a solo run and a combined run
		// with the same tenant table instantiate identical demand — the
		// noisy-neighbor equality assertions lean on exactly that.
		demand := func() []auction.Campaign {
			all := cfg.Demand.Generate(rng.Stream("demand"))
			for ti, tc := range tenants {
				set := cfg.Demand.Generate(rng.Stream("demand:" + tc.ID))
				for i := range set {
					set[i].ID += auction.CampaignID((ti + 1) * cfg.Demand.Campaigns)
					set[i].Tenant = tc.ID
				}
				all = append(all, set...)
			}
			return all
		}
		return shard.New(shards, cfg.Core.Server, members,
			func(int) (*auction.Exchange, error) {
				return auction.NewExchange(demand(), auction.DefaultReserveUSD)
			},
			func(id int) predict.Predictor { return cfg.Core.NewPredictor(id, env.oracle) },
			env.hints)
	}
	return env, nil
}

// driveStream runs the replay loop against a serving backend: one
// transport.Device per client plus the period coordinator, all over
// real HTTP, the devices walked by the per-worker wake heaps (seedHeaps,
// drainDue). It fills every client-side Result field; the backend's
// finish settles the server-side ones.
func driveStream(env *replayEnv, back serving) (*Result, error) {
	cfg, o, plan, workers := env.cfg, env.o, env.o.Plan, env.workers
	st := env.stream
	n := len(env.ids)
	baseURL := back.url()

	baseRT := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	defer baseRT.CloseIdleConnections()
	rt := http.RoundTripper(baseRT)
	if plan != nil {
		rt = plan.RoundTripper(baseRT)
	}
	hc := &http.Client{Transport: rt}
	// The admin control plane and the flood load source bypass the fault
	// plan's wire faults: chaos aims at the ad-serving path, and a
	// keyless admin request would re-draw the same fault decision on
	// every retry, never converging.
	plainHC := &http.Client{Transport: baseRT}

	// One shared registry aggregates the fleet's client-side
	// instrumentation (the series carry no per-device labels, so the
	// cardinality is flat at any fleet size; all updates are atomic).
	clientReg := obs.NewRegistry()
	// A multi-tenant run's devices declare their owner on the wire, and
	// per-tenant latency histograms separate the victim's tail from the
	// aggressor's.
	var tenantReg *tenant.Registry
	var slotLat map[string]*obs.Histogram
	if len(o.Tenants) > 0 {
		var err error
		if tenantReg, err = tenant.NewRegistry(1, o.Tenants); err != nil {
			return nil, err
		}
		latReg := obs.NewRegistry()
		slotLat = map[string]*obs.Histogram{
			tenant.Legacy: latReg.Histogram("slot_latency_ns", "tenant", "legacy"),
		}
		for _, tc := range o.Tenants {
			slotLat[tc.ID] = latReg.Histogram("slot_latency_ns", "tenant", tc.ID)
		}
	}
	epochSteps := make(map[int][]ConfigEpochStep, len(o.ConfigEpochs))
	for _, step := range o.ConfigEpochs {
		epochSteps[step.Period] = append(epochSteps[step.Period], step)
	}
	var floodAdmitted, floodShed atomic.Int64
	devices := make([]*transport.Device, n)
	var meters []*radio.Radio // transport retry meters; chaos runs only
	if plan != nil {
		meters = make([]*radio.Radio, n)
	}
	var energy []*radio.Radio // app/ad transfer radios; Energy runs only
	if o.Energy {
		energy = make([]*radio.Radio, n)
	}
	for i := 0; i < n; i++ {
		opts := []transport.Option{transport.WithHTTPClient(hc), transport.WithRegistry(clientReg)}
		if plan != nil {
			meters[i] = radio.New(radio.Profile3G())
			opts = append(opts, transport.WithMeter(meters[i]))
		}
		if o.Batched {
			opts = append(opts, transport.WithBatching())
		}
		if o.BinaryBatch {
			opts = append(opts, transport.WithBinaryBatch())
		}
		if t := tenantReg.TenantOf(i); t != tenant.Legacy {
			opts = append(opts, transport.WithTenant(t))
		}
		d, err := transport.NewDevice(i, cfg.Core.Server.Overbook.CacheCap, baseURL, opts...)
		if err != nil {
			return nil, err
		}
		d.NoRescue = !cfg.Core.Rescue()
		devices[i] = d
		if o.Energy {
			energy[i] = radio.New(cfg.Radio)
		}
	}

	heaps := seedHeaps(env.firstWake, workers)
	env.firstWake = nil // consumed; do not hold it for the whole run
	// Transient derivation: drainDue loads a client's timeline at its
	// first wake-up in a period. Workers touch disjoint id ranges of cur.
	cur := make([]cursor, n)
	timeline := func(id int) []timelineEvent {
		return buildTimeline(st.UserAt(id), env.cat, cfg.RefreshInterval)
	}
	appHints := slotHints(env.cat)

	coord := transport.NewCoordinator(baseURL, transport.WithHTTPClient(hc), transport.WithRegistry(clientReg))
	res := &Result{Mode: cfg.Core.Mode, Delivery: cfg.Core.Delivery, Users: n,
		Obs: back.registry(), ClientObs: clientReg}
	period := cfg.Core.Server.Period

	// The period loop sim.Run walks: each boundary closes the previous
	// period and opens the next, and the events between two boundaries
	// replay before the next one. Events after the last full period
	// replay after the final EndPeriod, with no period open, in a last
	// StreamPeriods row of their own.
	periodsTotal := int(env.span / simclock.Time(period))
	res.StreamPeriods = make([]StreamPeriodStat, 0, periodsTotal+1)
	for pi := 0; pi <= periodsTotal; pi++ {
		now := simclock.Time(pi) * simclock.Time(period)
		if pi > 0 {
			prev := predict.PeriodOf(now-simclock.Time(period), period)
			if _, err := coord.EndPeriod(now, prev.Index, prev.OfDay, prev.Weekend); err != nil {
				return nil, err
			}
		}
		open := pi < periodsTotal
		if !open && now >= env.span {
			break
		}
		selling := now >= cfg.warmupEnd()
		wallStart := time.Now()
		lat := obs.NewRegistry().Histogram("stream_req_latency_ns")
		var ops atomic.Int64
		end := endOfTime
		var migErr error
		var sideWg sync.WaitGroup
		if open {
			end = now + simclock.Time(period)
			// Scheduled config epochs land at the period's opening, before
			// its selling round, so the new admission contract governs the
			// whole period.
			for _, step := range epochSteps[pi] {
				if err := postTenantConfig(plainHC, baseURL, step); err != nil {
					return nil, err
				}
			}
			if selling && cfg.Core.Mode != core.ModeOnDemand {
				p := predict.PeriodOf(now, period)
				reply, err := coord.StartPeriod(now, p.Index, p.OfDay, p.Weekend)
				if err != nil {
					return nil, err
				}
				res.SoldTotal += int64(reply.Sold)
				res.ReplicaTotal += int64(reply.Replicas)
				res.PlacedTotal += int64(reply.Placed)
				res.Periods++
				// Scheduled delivery: every device downloads its bundle at
				// the boundary, concurrently.
				if err := eachDevice(n, workers, func(i int) error {
					t0 := time.Now()
					got, err := devices[i].FetchBundle(now)
					if err != nil {
						return err
					}
					lat.Observe(time.Since(t0).Nanoseconds())
					ops.Add(1)
					if energy != nil && got > 0 {
						energy[i].Transfer(now, int64(got)*AdBytes, cfg.owner(now, "ads"))
					}
					return nil
				}); err != nil {
					return nil, err
				}
			}
			// Fire any membership change scheduled for this period while
			// the slot replay below is in full swing: the rebalance must
			// win its equivalence guarantee against concurrent device
			// traffic, not against a conveniently idle cluster. Joined
			// before the period boundary so the EndPeriod barrier sees
			// settled membership. The flood, when armed, pressures the
			// serving side at the same time — victim requests and
			// aggressor requests contend on the same locks.
			if mig, ok := back.(migrator); ok {
				sideWg.Add(1)
				go func(pi int) {
					defer sideWg.Done()
					migErr = mig.migrate(pi)
				}(pi)
			}
			if o.Flood != nil && selling {
				sideWg.Add(1)
				go func() {
					defer sideWg.Done()
					runFlood(plainHC, baseURL, o.Flood, now, end, &floodAdmitted, &floodShed)
				}()
			}
		}
		// Replay this period's events: each worker walks its clients'
		// events in (time, client id) order, the workers concurrently.
		visit := func(id int, ev timelineEvent) error {
			if !ev.slot {
				if energy != nil {
					energy[id].Transfer(ev.at, ev.bytes, cfg.owner(ev.at, "app"))
				}
				return nil
			}
			t0 := time.Now()
			// Before selling starts a slot is a status-quo fetch, as in sim.Run.
			out := transport.SlotOutcome{Fetched: true}
			var err error
			if !selling {
				err = devices[id].ObserveSlot(ev.at)
			} else {
				out, err = devices[id].HandleSlot(ev.at, appHints[ev.app])
				if slotLat != nil {
					slotLat[tenantReg.TenantOf(id)].Observe(time.Since(t0).Nanoseconds())
				}
			}
			if err != nil {
				return err
			}
			if energy != nil {
				cfg.chargeSlot(energy[id], ev.at, out.Fetched, out.TopUpAds, out.CacheHit)
			}
			lat.Observe(time.Since(t0).Nanoseconds())
			ops.Add(1)
			return nil
		}
		var wakeups atomic.Int64
		err := eachDevice(len(heaps), len(heaps), func(w int) error {
			woke, err := drainDue(&heaps[w], end, cur, timeline, visit)
			wakeups.Add(woke)
			return err
		})
		sideWg.Wait()
		if err != nil {
			return nil, err
		}
		if migErr != nil {
			return nil, migErr
		}
		// Batched devices hold display reports write-behind; deliver them
		// before the boundary closes the period so the server's sweep
		// state matches the sequential wire at every EndPeriod.
		if o.Batched && selling && open {
			if err := eachDevice(n, workers, func(i int) error {
				devices[i].FlushDeferred(end)
				return nil
			}); err != nil {
				return nil, err
			}
		}
		res.StreamPeriods = append(res.StreamPeriods, StreamPeriodStat{
			Index:     pi,
			HourOfDay: int((now % simclock.Day) / simclock.Hour),
			Wakeups:   wakeups.Load(),
			Ops:       ops.Load(),
			WallNS:    time.Since(wallStart).Nanoseconds(),
			P50NS:     lat.Quantile(0.50),
			P95NS:     lat.Quantile(0.95),
			P99NS:     lat.Quantile(0.99),
		})
	}

	// Settle deferred display reports while the server is still up:
	// devices that rode out a partition deliver their queued billing
	// under the original keys and timestamps.
	if plan != nil || o.Batched {
		if err := eachDevice(n, workers, func(i int) error {
			devices[i].FlushDeferred(env.span)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	res.Days = st.Days() - cfg.WarmupDays
	if !o.Lean {
		res.PerClient = make(map[int]client.Counters, n)
	}
	for i, d := range devices {
		c := d.Counters()
		if res.PerClient != nil {
			res.PerClient[i] = c
		}
		res.Counters.Add(c)
		res.Net.Add(d.Net())
	}
	res.Net.Add(coord.Net())
	if plan != nil {
		for i, d := range devices {
			meters[i].Flush()
			res.RetryEnergyJ += d.RetryEnergyJ()
		}
		res.FaultsInjected = plan.InjectedTotal()
	}
	for _, r := range energy {
		res.addEnergy(o.Lean, r)
	}
	if slotLat != nil {
		res.TenantSlotP99NS = make(map[string]float64, len(slotLat))
		for t, h := range slotLat {
			if h.Count() > 0 {
				res.TenantSlotP99NS[t] = h.Quantile(0.99)
			}
		}
	}
	if o.Flood != nil {
		res.FloodAdmitted = floodAdmitted.Load()
		res.FloodShed = floodShed.Load()
	}
	return res, nil
}
