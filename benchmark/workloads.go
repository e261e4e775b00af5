package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// workload is one named set of inputs. A round is one complete
// simulation at these sizes; sizes are fixed (never derived from the
// machine) so a number means the same thing on every box.
type workload struct {
	Name string
	Why  string
	// wire workloads run sim.RunTransportStream; the in-process one runs
	// sim.Run and has no transport, WAL or cluster under it.
	wire   bool
	wal    bool // a WAL sits on the serving path
	routed bool // a cluster.Router sits on the serving path
	// config builds the round's simulation config from its sub-seed.
	config func(seed int64) sim.Config
	// opts selects the wire variant (wire workloads only). walDir is a
	// fresh directory for the round, empty unless wal is set.
	opts func(workers int, walDir string) sim.TransportOpts
}

func streamConfig(mode core.Mode, seed int64, users int, refresh time.Duration, sessions float64) sim.Config {
	cfg := sim.DefaultConfig(mode)
	cfg.TraceCfg.Users = users
	cfg.TraceCfg.Days = 1
	cfg.TraceCfg.Seed = seed
	cfg.TraceCfg.SessionsPerDayMedian = sessions
	cfg.Seed = seed
	cfg.WarmupDays = 0
	cfg.Core.Server.Period = 6 * time.Hour
	cfg.RefreshInterval = refresh
	return cfg
}

var workloads = []workload{
	{
		Name: "diurnal_batched",
		Why:  "read-heavy bundle fetches on the JSON batch wire: handler, envelope and bundle-encode changes show; WAL, router, predictive engine idle",
		wire: true,
		config: func(seed int64) sim.Config {
			return streamConfig(core.ModeNaiveBulk, seed, 6000, 5*time.Minute, 1.5)
		},
		opts: func(workers int, _ string) sim.TransportOpts {
			return sim.TransportOpts{Shards: 2, Workers: workers, Batched: true, Energy: true, Lean: true}
		},
	},
	{
		Name: "slots_sequential_wal",
		Why:  "write-heavy per-op JSON endpoints at the SDK's 30 s refresh with the WAL on the path: dedup, wal.Append and checkpoints show",
		wire: true,
		wal:  true,
		config: func(seed int64) sim.Config {
			return streamConfig(core.ModeNaiveBulk, seed, 1400, 30*time.Second, 4)
		},
		opts: func(workers int, walDir string) sim.TransportOpts {
			return sim.TransportOpts{Shards: 2, Workers: workers, Energy: true, Lean: true,
				WALDir: walDir, Fsync: false, SnapshotEvery: 2}
		},
	},
	{
		Name: "routed_binary",
		Why:  "same device traffic through cluster.Router over 3 nodes on the APB1 binary wire: the only workload where internal/cluster works",
		wire: true, routed: true,
		config: func(seed int64) sim.Config {
			return streamConfig(core.ModeNaiveBulk, seed, 1200, 30*time.Second, 4)
		},
		opts: func(workers int, _ string) sim.TransportOpts {
			return sim.TransportOpts{Nodes: 3, Workers: workers, Batched: true, BinaryBatch: true, Energy: true, Lean: true}
		},
	},
	{
		Name: "paper_inproc",
		Why:  "the paper's predictive mechanism (overbooked replicas, rescue) in sim.Run with no wire: engine-bound, transport/wal/cluster must not show",
		config: func(seed int64) sim.Config {
			cfg := sim.DefaultConfig(core.ModePredictive)
			cfg.TraceCfg.Users = 600
			cfg.TraceCfg.Days = 6
			cfg.TraceCfg.Seed = seed
			cfg.Seed = seed
			cfg.WarmupDays = 3
			cfg.Core.Server.Period = 4 * time.Hour
			return cfg
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundSeed derives round r's sub-seed from the run seed (splitmix64
// finisher, so neighbouring seeds and rounds do not share inputs).
func roundSeed(seed int64, r int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(r+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// round is what one complete simulation measured.
type round struct {
	ops       int64
	wallNS    int64 // the whole round, set-up and teardown included
	servingNS int64 // the part of it spent serving ops
	cpuNS     int64 // process user+sys over the measured section
	mallocs   uint64
	allocB    uint64

	// p50WeightedNS is Σ period p50 × period ops; divide by ops.
	p50WeightedNS float64

	out    outcome
	layer  layerCounters
	refAdJ float64 // on-demand reference ad energy (paper_inproc)
}

// outcome is the part of a sim.Result a run keeps. The Result itself is
// dropped when its round ends: its registries hold gauge closures over
// the whole serving stack, and keeping them would grow the heap — and
// peak_rss_mb — round by round.
type outcome struct {
	ledger                 auction.Ledger
	counters               client.Counters
	net                    transport.NetCounters
	adJ, retryJ            float64
	deviceDays             float64
	sold, replicas, placed int64
	clocked                bool // the replay clocked every op
}

func outcomeOf(res *sim.Result) outcome {
	return outcome{
		ledger: res.Ledger, counters: res.Counters, net: res.Net,
		adJ: res.AdEnergyJ, retryJ: res.RetryEnergyJ,
		deviceDays: float64(res.Users) * float64(res.Days),
		sold:       res.SoldTotal, replicas: res.ReplicaTotal, placed: res.PlacedTotal,
		clocked: res.StreamPeriods != nil,
	}
}

func (r round) opsPerS() float64    { return float64(r.ops) / (float64(r.servingNS) / 1e9) }
func (r round) setupS() float64     { return float64(r.wallNS-r.servingNS) / 1e9 }
func (r round) cpuUSPerOp() float64 { return float64(r.cpuNS) / 1e3 / float64(r.ops) }
func (r round) opP50US() float64 {
	if !r.out.clocked {
		// No per-op clock in the in-process simulator: mean service time.
		return 1e6 / r.opsPerS()
	}
	return r.p50WeightedNS / float64(r.ops) / 1e3
}

// gauge snapshots the process-wide meters a round is charged against.
type gauge struct {
	at    time.Time
	cpuNS int64
	mem   runtime.MemStats
}

func readGauge() gauge {
	var g gauge
	runtime.ReadMemStats(&g.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		g.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	g.at = time.Now()
	return g
}

// runRound runs one complete simulation of w under sub-seed seed and
// measures it. scratch is the directory round-local files go under.
func runRound(w workload, seed int64, workers int, scratch string) (round, error) {
	var r round
	cfg := w.config(seed)
	if !w.wire {
		return runInprocRound(cfg)
	}
	walDir := ""
	if w.wal {
		var err error
		if walDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return r, err
		}
		defer os.RemoveAll(walDir)
	}
	o := w.opts(workers, walDir)

	runtime.GC()
	g0 := readGauge()
	res, err := sim.RunTransportStream(cfg, o)
	g1 := readGauge()
	if err != nil {
		return r, err
	}
	r.out = outcomeOf(res)
	r.wallNS = g1.at.Sub(g0.at).Nanoseconds()
	r.cpuNS = g1.cpuNS - g0.cpuNS
	r.mallocs = g1.mem.Mallocs - g0.mem.Mallocs
	r.allocB = g1.mem.TotalAlloc - g0.mem.TotalAlloc
	for _, p := range res.StreamPeriods {
		r.ops += p.Ops
		r.servingNS += p.WallNS
		r.p50WeightedNS += p.P50NS * float64(p.Ops)
	}
	r.layer = readLayerCounters(res, r.ops, r.servingNS, workers)
	if walDir != "" {
		r.layer.walDirMB = dirMB(walDir)
	}
	if r.ops == 0 || r.servingNS == 0 {
		return r, fmt.Errorf("round served no ops")
	}
	return r, nil
}

// runInprocRound is paper_inproc's round: the same population first in
// ModeOnDemand as the energy reference (part of set-up, not of the
// measured section), then the timed predictive sim.Run. CPU and
// allocations are charged over the timed run only, so the reference
// cannot move the per-op costs.
func runInprocRound(cfg sim.Config) (round, error) {
	var r round
	ref := cfg
	ref.Core = core.DefaultConfig(core.ModeOnDemand)
	ref.Core.Server.Period = cfg.Core.Server.Period

	runtime.GC()
	start := time.Now()
	refRes, err := sim.Run(ref)
	if err != nil {
		return r, fmt.Errorf("on-demand reference: %w", err)
	}
	r.refAdJ = refRes.AdEnergyJ
	refRes = nil
	runtime.GC()

	g0 := readGauge()
	res, err := sim.Run(cfg)
	g1 := readGauge()
	if err != nil {
		return r, err
	}
	r.out = outcomeOf(res)
	r.servingNS = g1.at.Sub(g0.at).Nanoseconds()
	r.wallNS = g1.at.Sub(start).Nanoseconds()
	r.cpuNS = g1.cpuNS - g0.cpuNS
	r.mallocs = g1.mem.Mallocs - g0.mem.Mallocs
	r.allocB = g1.mem.TotalAlloc - g0.mem.TotalAlloc
	r.ops = res.Counters.SlotsServed + res.Counters.BundleFetches
	r.layer = readLayerCounters(res, r.ops, r.servingNS, 1)
	if r.ops == 0 {
		return r, fmt.Errorf("round served no ops")
	}
	return r, nil
}

func netFailures(n transport.NetCounters) int64 {
	return n.Unreachable + n.Shed + n.LostBundles + n.LostObservations + n.LostReports
}

func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file vanishing mid-walk only shrinks the estimate
	})
	return float64(total) / (1 << 20)
}

// pooled sums the outcome fields over a run's timed rounds.
type pooled struct {
	outcome
	refAdJ float64
	layer  layerCounters
	// attempted and failed are the result line's pair: HTTP attempts on
	// the wire (ops where there is no wire) and those that were lost.
	attempted, failed int64
}

func (p *pooled) add(r round) {
	o := r.out
	p.ledger.Sold += o.ledger.Sold
	p.ledger.BilledUSD += o.ledger.BilledUSD
	p.ledger.Billed += o.ledger.Billed
	p.ledger.FreeUSD += o.ledger.FreeUSD
	p.ledger.FreeShows += o.ledger.FreeShows
	p.ledger.Violations += o.ledger.Violations
	p.ledger.ViolatedUSD += o.ledger.ViolatedUSD
	p.ledger.PotentialUSD += o.ledger.PotentialUSD
	p.counters.SlotsServed += o.counters.SlotsServed
	p.counters.CacheHits += o.counters.CacheHits
	p.counters.OnDemandFetches += o.counters.OnDemandFetches
	p.counters.BundleFetches += o.counters.BundleFetches
	p.counters.BundledAds += o.counters.BundledAds
	p.counters.DroppedOverflow += o.counters.DroppedOverflow
	p.counters.DroppedExpired += o.counters.DroppedExpired
	p.net.Add(o.net)
	p.adJ += o.adJ
	p.retryJ += o.retryJ
	p.deviceDays += o.deviceDays
	p.sold += o.sold
	p.replicas += o.replicas
	p.placed += o.placed
	p.refAdJ += r.refAdJ
	p.layer.add(r.layer)
	if o.clocked {
		p.attempted += o.net.Attempts
	} else {
		p.attempted += r.ops
	}
	p.failed += netFailures(o.net)
}
