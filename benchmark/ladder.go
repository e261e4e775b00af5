package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The ladder measures one op — a device wake-up pair: a cache miss (slot
// observation, on-demand rescue with a one-ad top-up) then a cache hit
// on the same device (slot observation, cancellation probe, display
// report) — on one fixed stack, rung by rung. Five requests on the
// per-op wire, four envelopes carrying the same five sub-ops on the
// batch wire.
const (
	ladderClients   = 4096
	ladderCampaigns = 50
	// ladderBlock clients pair up per epoch (one simulated day). Only
	// they forecast slots that day, so every epoch opens with the same
	// small book (2 impressions per pair) and the op pattern is
	// stationary; the engine's scan of a large book is measured on its
	// own (adserver.topup_us), not smeared over every rung.
	ladderBlock  = 64
	ladderBlocks = ladderClients / ladderBlock
	ladderPeriod = 24 * time.Hour
	ladderTenant = "pubA"

	// minPairs is the least a timed epoch may hold before the rung's time
	// slice can cut it short (an fsync epoch is slow).
	minPairs = 32
)

// blockPredictor forecasts two slots on the days its client's block is
// up and none otherwise. It is the harness's input to shard.New, the
// same way a deployment passes its own predictor factory.
type blockPredictor struct{ block int }

func (blockPredictor) Name() string                { return "ladder-block" }
func (blockPredictor) Observe(predict.Period, int) {}
func (b blockPredictor) Predict(p predict.Period) predict.Estimate {
	if p.Index%ladderBlocks != b.block {
		return predict.Estimate{NoShowProb: 1}
	}
	return predict.Estimate{Slots: 2, Mean: 2}
}

func ladderEngineConfig() adserver.Config {
	cfg := adserver.DefaultConfig()
	cfg.Period = ladderPeriod
	cfg.TopUpCap = 1
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.5
	return cfg
}

// ladderPool builds the engine under every rung: members served by one
// shard, campaigns generated from the seed with budgets that outlast
// any run. With tenants on, a second campaign set tagged with the
// tenant backs the tenant's clients, as cmd/adserverd does.
func ladderPool(seed int64, members []int, tenants bool) (*shard.Pool, error) {
	demand := auction.DefaultDemand()
	demand.Campaigns = ladderCampaigns
	demand.BudgetImpressions = 1 << 40
	mkExchange := func(int) (*auction.Exchange, error) {
		cs := demand.Generate(simclock.NewRand(seed))
		if tenants {
			set := demand.Generate(simclock.NewRand(seed + 1))
			for i := range set {
				set[i].ID += auction.CampaignID(demand.Campaigns)
				set[i].Tenant = ladderTenant
			}
			cs = append(cs, set...)
		}
		return auction.NewExchange(cs, 0.0002)
	}
	return shard.New(1, ladderEngineConfig(), members, mkExchange,
		func(id int) predict.Predictor { return blockPredictor{block: id / ladderBlock} }, nil)
}

func allClients() []int {
	ids := make([]int, ladderClients)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// rung is one fresh stack and the way the ladder op is issued on it.
type rung interface {
	startEpoch(now simclock.Time, p predict.Period) error
	endEpoch(now simclock.Time, p predict.Period) error
	// pair issues one wake-up pair for client at now. It must fail if
	// the stack answered anything but miss-then-hit: a diverged script
	// would make rungs incomparable.
	pair(client int, now simclock.Time) error
	// requests is how many HTTP requests of timed pairs the innermost
	// boundary saw so far.
	requests() int64
	// mem is the in-memory transport of a handler rung (nil otherwise);
	// it can count the allocations of handler calls alone.
	mem() *memTransport
	close()
}

// rungStats is what one rung measured, per pair.
type rungStats struct {
	pairs     int
	totalNS   float64              // root span per pair
	bareNS    float64              // the same with the wrappers silent (overhead rung only)
	spanNS    [nBoundaries]float64 // span duration per pair, by boundary
	selfNS    [nBoundaries]float64 // self time per pair, by boundary
	procAlloc float64              // process-wide mallocs per pair over the timed epochs
	hdlAlloc  float64              // mallocs inside handler calls per pair (handler rungs)
	sample    []span
}

// runRung drives r for about slice: an untimed warm-up, then timed
// epochs (each: period start, pairs for one block of clients, period
// end), then — for handler rungs — a short allocation pass. Per-pair
// figures are the median over the timed epochs.
func runRung(name string, r rung, rec *recorder, slice time.Duration, reqsPerPair int, overhead bool) (rungStats, error) {
	var st rungStats
	deadline := time.Now().Add(slice)
	epoch := 0
	// epochPairs runs up to n pairs of the current epoch's block and
	// returns how many ran and how many objects the process allocated
	// while they did (the period rounds on either side are outside).
	mode := recAll
	epochPairs := func(n int, timed bool) (int, uint64, error) {
		t0 := simclock.Time(epoch) * simclock.Time(ladderPeriod)
		p := predict.PeriodOf(t0, ladderPeriod)
		if err := r.startEpoch(t0, p); err != nil {
			return 0, 0, fmt.Errorf("rung %s: period start: %w", name, err)
		}
		first := (epoch % ladderBlocks) * ladderBlock
		done := 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if timed {
			rec.mode.Store(mode)
		}
		for ; done < n; done++ {
			if timed && done >= minPairs && done%16 == 0 && time.Now().After(deadline) {
				break
			}
			at := t0 + simclock.Hour + simclock.Time(done)*simclock.Minute
			if err := r.pair(first+done, at); err != nil {
				rec.mode.Store(recOff)
				return done, 0, fmt.Errorf("rung %s: pair %d of epoch %d: %w", name, done, epoch, err)
			}
		}
		rec.mode.Store(recOff)
		runtime.ReadMemStats(&m1)
		if err := r.endEpoch(t0+simclock.Time(ladderPeriod), p); err != nil {
			return done, 0, fmt.Errorf("rung %s: period end: %w", name, err)
		}
		epoch++
		return done, m1.Mallocs - m0.Mallocs, nil
	}

	if _, _, err := epochPairs(ladderBlock, false); err != nil {
		return st, err
	}
	rec.drain()

	var total, bare, alloc []float64
	var spanBy, selfBy [nBoundaries][]float64
	for i := 0; len(total) == 0 || (overhead && len(bare) == 0) || time.Now().Before(deadline); i++ {
		if overhead && i%2 == 1 {
			// Every other epoch of the overhead rung runs with the
			// wrappers silent: same stack, same moment, tracing off.
			mode = recRootOnly
			n, _, err := epochPairs(ladderBlock, true)
			mode = recAll
			if err != nil {
				return st, err
			}
			var dur int64
			for _, s := range rec.drain() {
				dur += s.EndNS - s.StartNS
			}
			bare = append(bare, float64(dur)/float64(n))
			continue
		}
		req0 := r.requests()
		n, mallocs, err := epochPairs(ladderBlock, true)
		if err != nil {
			return st, err
		}
		spans := rec.drain()
		if got := r.requests() - req0; reqsPerPair > 0 && got != int64(n*reqsPerPair) {
			return st, fmt.Errorf("rung %s: %d pairs issued %d requests, want %d per pair", name, n, got, reqsPerPair)
		}
		self := selfTimes(spans)
		var dur, slf [nBoundaries]int64
		for i, s := range spans {
			if s.EndNS > s.StartNS {
				dur[s.at] += s.EndNS - s.StartNS
			}
			slf[s.at] += self[i]
		}
		total = append(total, float64(dur[bOp])/float64(n))
		alloc = append(alloc, float64(mallocs)/float64(n))
		for b := range dur {
			spanBy[b] = append(spanBy[b], float64(dur[b])/float64(n))
			selfBy[b] = append(selfBy[b], float64(slf[b])/float64(n))
		}
		st.pairs += n
		if st.sample == nil {
			st.sample = spans // trace.json keeps each rung's first timed epoch
		}
	}
	st.totalNS = median(total)
	st.bareNS = median(bare)
	st.procAlloc = median(alloc)
	for b := range spanBy {
		st.spanNS[b] = median(spanBy[b])
		st.selfNS[b] = median(selfBy[b])
	}

	if m := r.mem(); m != nil {
		// Handler allocations alone: one more epoch with ReadMemStats
		// around every handler call (too slow to time). One P, as
		// testing.AllocsPerRun does: the stop-the-world otherwise migrates
		// the goroutine between Ps and every sync.Pool in the handler
		// misses.
		procs := runtime.GOMAXPROCS(1)
		m.allocMode = true
		n, _, err := epochPairs(ladderBlock, false)
		m.allocMode = false
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return st, err
		}
		st.hdlAlloc = float64(m.mallocs) / float64(n)
	}
	return st, nil
}

// engineRung is rungs 0 and 1: the script calls the engine directly,
// mirroring what the transport handlers do under the shard lock.
type engineRung struct {
	rec    *recorder
	server func(client int) *adserver.Server
	pool   *shard.Pool
}

func (e *engineRung) startEpoch(now simclock.Time, p predict.Period) error {
	e.pool.StartPeriod(now, p)
	return nil
}
func (e *engineRung) endEpoch(now simclock.Time, p predict.Period) error {
	e.pool.EndPeriod(now, p)
	return nil
}
func (e *engineRung) requests() int64    { return 0 }
func (e *engineRung) mem() *memTransport { return nil }
func (e *engineRung) close()             {}

func (e *engineRung) pair(client int, now simclock.Time) error {
	ref := e.rec.begin(bOp)
	defer e.rec.end(ref)
	// One shard lookup per protocol op, as the transport does per request.
	e.server(client).ObserveSlot(client)
	srv := e.server(client)
	if _, ok := srv.RescueOpen(now, client); !ok {
		return fmt.Errorf("miss found nothing to rescue")
	}
	ads := srv.TopUp(now, client)
	if len(ads) != 1 {
		return fmt.Errorf("top-up carried %d ads, want 1", len(ads))
	}
	later := now + 30*simclock.Second
	e.server(client).ObserveSlot(client)
	if e.server(client).CancellationKnown(ads[0].ID, later) {
		return fmt.Errorf("topped-up ad already cancelled")
	}
	return e.server(client).ReportDisplay(ads[0].ID, later)
}

// memTransport is the recording RoundTripper of the handler rungs: it
// hands each request a transport.Device produces — per-op JSON, JSON
// envelope, APB1 or APB2 frame — straight to the handler in memory,
// with a span around the call. It reuses its response objects so the
// harness adds no allocations of its own to the window.
type memTransport struct {
	h         http.Handler
	rec       *recorder
	n         int64
	allocMode bool
	mallocs   uint64

	w    memResponse
	resp http.Response
	body memBody
}

type memResponse struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (w *memResponse) Header() http.Header         { return w.header }
func (w *memResponse) WriteHeader(code int)        { w.code = code }
func (w *memResponse) Write(b []byte) (int, error) { return w.buf.Write(b) }

type memBody struct{ bytes.Reader }

func (*memBody) Close() error { return nil }

func (t *memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body == nil {
		r.Body = http.NoBody
	}
	if t.w.header == nil {
		t.w.header = make(http.Header)
	}
	clear(t.w.header)
	t.w.code = http.StatusOK
	t.w.buf.Reset()

	var m0, m1 runtime.MemStats
	if t.allocMode {
		runtime.ReadMemStats(&m0)
	}
	ref := t.rec.begin(bNode)
	t.h.ServeHTTP(&t.w, r)
	t.rec.end(ref)
	if t.allocMode {
		runtime.ReadMemStats(&m1)
		t.mallocs += m1.Mallocs - m0.Mallocs
	}
	if ref != noSpan {
		t.n++
	}

	t.body.Reset(t.w.buf.Bytes())
	t.resp = http.Response{
		StatusCode: t.w.code, Status: http.StatusText(t.w.code),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: t.w.header, Body: &t.body, ContentLength: int64(t.w.buf.Len()), Request: r,
	}
	return &t.resp, nil
}

// spanTransport is the harness's RoundTripper wrapper at a real hop.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
	at   boundary
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := t.rec.begin(t.at)
	resp, err := t.base.RoundTrip(r)
	t.rec.end(ref)
	return resp, err
}

// spanHandler is the harness's http.Handler wrapper in front of a
// router or node; it also counts the requests that boundary saw.
type spanHandler struct {
	next http.Handler
	rec  *recorder
	at   boundary
	n    *atomic.Int64 // nil: not counted
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref := h.rec.begin(h.at)
	h.next.ServeHTTP(w, r)
	h.rec.end(ref)
	if ref != noSpan && h.n != nil {
		h.n.Add(1)
	}
}

// deviceRung is rungs 2 to 6: the script is a transport.Device's own
// HandleSlot logic, so every rung issues the identical op sequence by
// construction; rungs differ only in what sits between the device's
// HTTP client and the engine.
type deviceRung struct {
	rec     *recorder
	devices []*transport.Device
	coord   *transport.Coordinator
	batched bool
	inMem   *memTransport // handler rungs
	served  atomic.Int64  // socket rungs: requests the node boundary saw
	closers []func()
}

func (d *deviceRung) startEpoch(now simclock.Time, p predict.Period) error {
	_, err := d.coord.StartPeriod(now, p.Index, p.OfDay, p.Weekend)
	return err
}
func (d *deviceRung) endEpoch(now simclock.Time, p predict.Period) error {
	_, err := d.coord.EndPeriod(now, p.Index, p.OfDay, p.Weekend)
	return err
}
func (d *deviceRung) requests() int64 {
	if d.inMem != nil {
		return d.inMem.n
	}
	return d.served.Load()
}
func (d *deviceRung) mem() *memTransport { return d.inMem }
func (d *deviceRung) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

var ladderCats = []trace.Category{trace.CatGame}

func (d *deviceRung) pair(client int, now simclock.Time) error {
	dev := d.devices[client]
	ref := d.rec.begin(bOp)
	defer d.rec.end(ref)
	miss, err := dev.HandleSlot(now, ladderCats)
	if err != nil {
		return err
	}
	if !miss.Fetched || !miss.Rescued || miss.TopUpAds != 1 {
		return fmt.Errorf("first slot was not a rescued miss with one top-up: %+v", miss)
	}
	later := now + 30*simclock.Second
	hit, err := dev.HandleSlot(later, ladderCats)
	if err != nil {
		return err
	}
	if !hit.CacheHit || hit.Degraded {
		return fmt.Errorf("second slot was not a clean cache hit: %+v", hit)
	}
	if d.batched {
		// The write-behind display report would ride this device's next
		// wake-up, days away; deliver it inside the op instead.
		dev.FlushDeferred(later)
		if dev.PendingReports() != 0 {
			return fmt.Errorf("display report was not delivered")
		}
	}
	return nil
}

// stackOpts selects what a device rung puts between device and engine.
type stackOpts struct {
	wire    string // "" (one request per op), "json" or "bin" envelopes
	tenants bool
	walMode string // "", "nosync", "fsync"
	socket  bool   // real loopback listeners instead of in-memory calls
	nodes   int    // >0: that many nodes behind a cluster.Router
}

func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Shutdown(context.Background())
		<-done
	}, nil
}

// newDeviceRung builds one serving stack from exported constructors,
// the way cmd/adserverd does, plus one transport.Device per client.
func newDeviceRung(seed int64, rec *recorder, o stackOpts, scratch string) (*deviceRung, error) {
	d := &deviceRung{rec: rec, batched: o.wire != ""}
	fail := func(err error) (*deviceRung, error) {
		d.close()
		return nil, err
	}

	// node builds one serving node over members and returns its handler.
	node := func(idx int, members []int) (http.Handler, error) {
		pool, err := ladderPool(seed, members, o.tenants)
		if err != nil {
			return nil, err
		}
		ss := transport.NewShardedServer(pool)
		if o.tenants {
			reg, err := tenant.NewRegistry(1, []tenant.Config{{
				ID: ladderTenant, Lo: 0, Hi: ladderClients, RatePerSec: 1e9, Burst: 1e9}})
			if err != nil {
				return nil, err
			}
			ss.SetTenants(reg)
		}
		if o.walMode != "" {
			dir, err := os.MkdirTemp(scratch, fmt.Sprintf("ladder-wal%d-", idx))
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, func() { os.RemoveAll(dir) })
			l, err := wal.Open(dir, wal.Options{NoSync: o.walMode == "nosync"})
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, func() { l.Close() })
			ss.AttachWAL(l, 0)
			if _, err := ss.Recover(); err != nil {
				return nil, err
			}
		}
		return ss.Handler(), nil
	}

	var hc *http.Client
	base := "http://ladder.invalid"
	switch {
	case !o.socket:
		h, err := node(0, allClients())
		if err != nil {
			return fail(err)
		}
		d.inMem = &memTransport{h: h, rec: rec}
		hc = &http.Client{Transport: d.inMem}
	default:
		nodes := o.nodes
		if nodes == 0 {
			nodes = 1
		}
		members := make([][]int, nodes)
		for _, id := range allClients() {
			i := shard.Route(id, nodes)
			members[i] = append(members[i], id)
		}
		urls := make([]string, nodes)
		for i := range urls {
			h, err := node(i, members[i])
			if err != nil {
				return fail(err)
			}
			h = &spanHandler{next: h, rec: rec, at: bNode, n: &d.served}
			url, stop, err := serve(h)
			if err != nil {
				return fail(err)
			}
			d.closers = append(d.closers, stop)
			urls[i] = url
		}
		base = urls[0]
		if o.nodes > 0 {
			nodeRT := &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}
			d.closers = append(d.closers, nodeRT.CloseIdleConnections)
			rt := &spanTransport{base: nodeRT, rec: rec, at: bHop2}
			router, err := cluster.New(cluster.Membership{Nodes: urls},
				cluster.WithHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second}),
				cluster.WithPlacement(func(id int) int { return shard.Route(id, nodes) }))
			if err != nil {
				return fail(err)
			}
			d.closers = append(d.closers, router.Close)
			url, stop, err := serve(&spanHandler{next: router.Handler(), rec: rec, at: bRouter})
			if err != nil {
				return fail(err)
			}
			d.closers = append(d.closers, stop)
			base = url
		}
		devRT := &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}
		d.closers = append(d.closers, devRT.CloseIdleConnections)
		hc = &http.Client{Transport: &spanTransport{base: devRT, rec: rec, at: bHop1}, Timeout: 10 * time.Second}
	}

	opts := []transport.Option{transport.WithHTTPClient(hc)}
	switch o.wire {
	case "json":
		opts = append(opts, transport.WithBatching())
	case "bin":
		opts = append(opts, transport.WithBatching(), transport.WithBinaryBatch())
	}
	if o.tenants {
		opts = append(opts, transport.WithTenant(ladderTenant))
	}
	d.devices = make([]*transport.Device, ladderClients)
	for i := range d.devices {
		dev, err := transport.NewDevice(i, 64, base, opts...)
		if err != nil {
			return fail(err)
		}
		d.devices[i] = dev
	}
	d.coord = transport.NewCoordinator(base, transport.WithHTTPClient(hc))
	return d, nil
}

// Span topologies: which boundary's latest span is a new span's parent.
var (
	topoCall   = [nBoundaries]boundary{bOp: noParent, bHop1: noParent, bRouter: noParent, bHop2: noParent, bNode: bOp}
	topoSingle = [nBoundaries]boundary{bOp: noParent, bHop1: bOp, bRouter: noParent, bHop2: noParent, bNode: bHop1}
	topoRouted = [nBoundaries]boundary{bOp: noParent, bHop1: bOp, bRouter: bHop1, bHop2: bRouter, bNode: bHop2}
)

// runLadder runs every rung within budget and returns sources (b) of
// the per-layer list, the span sample for trace.json, and notes.
func runLadder(seed int64, budget time.Duration, scratch string) (map[string]float64, []span, []string, error) {
	type spec struct {
		name   string
		topo   [nBoundaries]boundary
		engine int // 1: adserver.Server directly; 2: through shard.Pool
		stack  stackOpts
	}
	specs := []spec{
		{name: "0", topo: topoCall, engine: 1},
		{name: "1", topo: topoCall, engine: 2},
		{name: "2", topo: topoCall, stack: stackOpts{}},
		{name: "2b", topo: topoCall, stack: stackOpts{wire: "json"}},
		{name: "2c", topo: topoCall, stack: stackOpts{wire: "bin"}},
		{name: "2d", topo: topoCall, stack: stackOpts{wire: "bin", tenants: true}},
		{name: "3", topo: topoCall, stack: stackOpts{walMode: "nosync"}},
		{name: "4", topo: topoCall, stack: stackOpts{walMode: "fsync"}},
		{name: "5", topo: topoSingle, stack: stackOpts{socket: true}},
		{name: "5b", topo: topoSingle, stack: stackOpts{wire: "bin", socket: true}},
		{name: "6", topo: topoRouted, stack: stackOpts{socket: true, nodes: 1}},
		{name: "6b", topo: topoRouted, stack: stackOpts{socket: true, nodes: 3}},
	}
	slice := budget / time.Duration(len(specs))
	by := map[string]rungStats{}
	var sample []span
	for _, sp := range specs {
		rec := newRecorder("rung"+sp.name, sp.topo)
		var r rung
		reqsPerPair := 0 // engine rungs make no requests
		if sp.engine > 0 {
			pool, err := ladderPool(seed, allClients(), false)
			if err != nil {
				return nil, nil, nil, err
			}
			e := &engineRung{rec: rec, pool: pool, server: pool.ShardFor}
			if sp.engine == 1 {
				srv := pool.Shard(0)
				e.server = func(int) *adserver.Server { return srv }
			}
			r = e
		} else {
			d, err := newDeviceRung(seed, rec, sp.stack, scratch)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("rung %s: %w", sp.name, err)
			}
			r = d
			// Five requests on the per-op wire, four envelopes batched.
			if reqsPerPair = 5; d.batched {
				reqsPerPair = 4
			}
		}
		st, err := runRung(sp.name, r, rec, slice, reqsPerPair, sp.name == "6")
		r.close()
		if err != nil {
			return nil, nil, nil, err
		}
		by[sp.name] = st
		sample = append(sample, st.sample...)
		fmt.Fprintf(os.Stderr, "adbench: rung %-10s %6d pairs  %9.0f ns/pair  node %9.0f  hop1 self %8.0f  router self %8.0f  hop2 self %8.0f  allocs %7.1f  handler allocs %6.1f\n",
			sp.name, st.pairs, st.totalNS, st.spanNS[bNode], st.selfNS[bHop1], st.selfNS[bRouter], st.selfNS[bHop2], st.procAlloc, st.hdlAlloc)
	}

	// Every per-op rung from the handler up must have seen the same five
	// requests per pair (runRung checked each against its own count).
	r6 := by["6"]
	var selfSum float64
	for b := range r6.selfNS {
		selfSum += r6.selfNS[b]
	}
	if d := selfSum/r6.totalNS - 1; d > 0.10 || d < -0.10 {
		return nil, nil, nil, fmt.Errorf("validation: rung 6 self times sum to %.0f ns, %.1f%% off its %.0f ns span", selfSum, 100*d, r6.totalNS)
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	r0, r1, r2, r3, r4, r5 := by["0"], by["1"], by["2"], by["3"], by["4"], by["5"]
	vals := map[string]float64{
		"adserver.pair_ns":     r0.totalNS,
		"adserver.pair_allocs": r0.procAlloc,
		"shard.route_self_ns":  r1.totalNS - r0.totalNS,

		"transport.handler_self_us":                 us(r2.spanNS[bNode] - r1.totalNS),
		"transport.handler_allocs":                  r2.hdlAlloc - r1.procAlloc,
		"transport.handler_batch_json_us":           us(by["2b"].spanNS[bNode]),
		"transport.handler_batch_bin_us":            us(by["2c"].spanNS[bNode]),
		"transport.handler_batch_bin_tenant_us":     us(by["2d"].spanNS[bNode]),
		"transport.handler_batch_json_allocs":       by["2b"].hdlAlloc,
		"transport.handler_batch_bin_allocs":        by["2c"].hdlAlloc,
		"transport.handler_batch_bin_tenant_allocs": by["2d"].hdlAlloc,

		"wal.append_self_us": us(r3.spanNS[bNode] - r2.spanNS[bNode]),
		"wal.append_allocs":  r3.hdlAlloc - r2.hdlAlloc,
		"wal.fsync_self_us":  us(r4.spanNS[bNode] - r3.spanNS[bNode]),

		"client.device_self_us":          us(r5.selfNS[bOp]),
		"transport.loopback_self_us":     us(r5.selfNS[bHop1]),
		"transport.loopback_allocs":      r5.procAlloc - r2.procAlloc,
		"transport.loopback_bin_self_us": us(by["5b"].selfNS[bHop1]),

		"cluster.router_self_us":  us(r6.selfNS[bRouter]),
		"cluster.forward_self_us": us(r6.selfNS[bHop2]),
		"cluster.proxy_allocs":    r6.procAlloc - r5.procAlloc,
		"cluster.proxy3_self_us":  us(by["6b"].selfNS[bRouter] + by["6b"].selfNS[bHop2]),

		"bench.trace_overhead_frac": r6.totalNS/r6.bareNS - 1,
	}
	notes := []string{
		fmt.Sprintf("ladder: %d clients, %d campaigns, %d pairs per epoch; rung 6 pair %.1f us = device %.1f + hop1 %.1f + router %.1f + hop2 %.1f + node handler %.1f",
			ladderClients, ladderCampaigns, ladderBlock, us(r6.totalNS), us(r6.selfNS[bOp]), us(r6.selfNS[bHop1]),
			us(r6.selfNS[bRouter]), us(r6.selfNS[bHop2]), us(r6.selfNS[bNode])),
	}
	return vals, sample, notes, nil
}
