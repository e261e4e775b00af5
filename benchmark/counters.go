package main

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// scrape reads a registry the way an operator would — through its
// Prometheus text exposition — and sums every family over its labels.
// Histogram families contribute <name>_sum and <name>_count; bucket
// lines are skipped. A nil registry (the in-process simulator has no
// server) scrapes empty.
func scrape(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return out // a bytes.Buffer never fails; keep the signature small
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// layerCounters holds the raw per-layer sums of one round, kept as sums
// so rounds pool by addition and ratios are taken once at the end.
type layerCounters struct {
	ops             float64
	servingNS       float64
	workers         float64
	httpRequests    float64
	httpLatencyNS   float64
	httpReqBytes    float64
	httpRespBytes   float64
	batchOpsSum     float64
	batchOpsCount   float64
	dedupKeys       float64 // at end: the last round's
	walDirMB        float64 // at end: the last round's
	walAppends      float64
	walBytes        float64
	walFsyncs       float64
	clusterForwards float64
	misdirected     float64
	unavailable     float64
	opSamples       float64
	p95MaxNS        float64
	p99MaxNS        float64
}

func readLayerCounters(res *sim.Result, ops, servingNS int64, workers int) layerCounters {
	m := scrape(res.Obs)
	lc := layerCounters{
		ops:             float64(ops),
		servingNS:       float64(servingNS),
		workers:         float64(workers),
		httpRequests:    m[obs.MetricHTTPRequests],
		httpLatencyNS:   m[obs.MetricHTTPLatencyNS+"_sum"],
		httpReqBytes:    m[obs.MetricHTTPReqBytes],
		httpRespBytes:   m[obs.MetricHTTPRespBytes+"_sum"],
		batchOpsSum:     m["batch_ops_sum"],
		batchOpsCount:   m["batch_ops_count"],
		dedupKeys:       m["shard_dedup_keys"],
		walAppends:      m["wal_appends_total"],
		walBytes:        m["wal_bytes_written_total"],
		walFsyncs:       m["wal_fsyncs_total"],
		clusterForwards: m["cluster_forwards_total"],
		misdirected:     m["cluster_misdirected_total"],
		unavailable:     m["cluster_node_unavailable_total"],
	}
	for _, p := range res.StreamPeriods {
		lc.opSamples += float64(p.Ops) // the replay clocks every op
		lc.p95MaxNS = math.Max(lc.p95MaxNS, p.P95NS)
		lc.p99MaxNS = math.Max(lc.p99MaxNS, p.P99NS)
	}
	return lc
}

func (a *layerCounters) add(b layerCounters) {
	a.ops += b.ops
	a.servingNS += b.servingNS
	a.workers = b.workers
	a.httpRequests += b.httpRequests
	a.httpLatencyNS += b.httpLatencyNS
	a.httpReqBytes += b.httpReqBytes
	a.httpRespBytes += b.httpRespBytes
	a.batchOpsSum += b.batchOpsSum
	a.batchOpsCount += b.batchOpsCount
	a.dedupKeys = b.dedupKeys
	a.walDirMB = b.walDirMB
	a.walAppends += b.walAppends
	a.walBytes += b.walBytes
	a.walFsyncs += b.walFsyncs
	a.clusterForwards += b.clusterForwards
	a.misdirected += b.misdirected
	a.unavailable += b.unavailable
	a.opSamples += b.opSamples
	a.p95MaxNS = math.Max(a.p95MaxNS, b.p95MaxNS)
	a.p99MaxNS = math.Max(a.p99MaxNS, b.p99MaxNS)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics computes source (a) of the per-layer list from a run's
// pooled rounds.
func counterMetrics(p pooled) map[string]float64 {
	lc, c, l := p.layer, p.counters, p.ledger
	saving := 0.0
	if p.refAdJ > 0 {
		saving = 1 - p.adJ/p.refAdJ
	}
	return map[string]float64{
		"transport.round_trips_per_op": ratio(float64(p.net.Attempts), lc.ops),
		"transport.retries_per_op":     ratio(float64(p.net.Retries), lc.ops),
		"transport.req_bytes_per_op":   ratio(lc.httpReqBytes, lc.ops),
		"transport.resp_bytes_per_op":  ratio(lc.httpRespBytes, lc.ops),
		"transport.batch_ops_mean":     ratio(lc.batchOpsSum, lc.batchOpsCount),
		"transport.server_us_per_req":  ratio(lc.httpLatencyNS, lc.httpRequests) / 1e3,
		"transport.server_busy_frac":   ratio(lc.httpLatencyNS, lc.workers*lc.servingNS),
		"transport.op_p95_us":          lc.p95MaxNS / 1e3,
		"transport.op_p99_us":          lc.p99MaxNS / 1e3,
		"transport.op_samples":         lc.opSamples,
		"transport.dedup_keys_at_end":  lc.dedupKeys,
		"wal.appends_per_op":           ratio(lc.walAppends, lc.ops),
		"wal.bytes_per_op":             ratio(lc.walBytes, lc.ops),
		"wal.fsyncs_per_op":            ratio(lc.walFsyncs, lc.ops),
		"wal.dir_mb_at_end":            lc.walDirMB,
		"cluster.forwards_per_op":      ratio(lc.clusterForwards, lc.ops),
		"cluster.misdirected":          lc.misdirected,
		"cluster.node_unavailable":     lc.unavailable,
		"client.ondemand_per_slot":     ratio(float64(c.OnDemandFetches), float64(c.SlotsServed)),
		"client.bundled_ads_per_fetch": ratio(float64(c.BundledAds), float64(c.BundleFetches)),
		"client.prefetch_used_frac":    ratio(float64(c.CacheHits), float64(c.BundledAds)),
		"client.dropped_expired_frac":  ratio(float64(c.DroppedExpired), float64(c.BundledAds)),
		"adserver.replicas_per_sold":   ratio(float64(p.replicas), float64(p.sold)),
		"adserver.sold_per_device_day": ratio(float64(p.sold), p.deviceDays),
		"auction.free_show_frac":       ratio(float64(l.FreeShows), float64(l.Billed+l.FreeShows)),
		"energy.ad_saving_frac":        saving,
		"energy.retry_j":               p.retryJ,
	}
}
