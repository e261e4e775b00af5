package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the single
// source of the names a run prints; BENCHMARK.json must list exactly
// these (the harness test pins it).
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
}

// endToEnd lists what a user of the system sees, in report order.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "1", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"ad_energy_j_per_device_day", "J", "lower"},
	{"sla_met_frac", "1", "higher"},
	{"revenue_kept_frac", "1", "higher"},
	{"cache_hit_frac", "1", "higher"},
}

// perLayer lists the single-layer metrics of the traced run. The name
// prefix is the layer (internal/<module>); bench.* is the harness's own.
var perLayer = []metricDef{
	// (a) public counters read after a pass of the run's own workload.
	{"transport.round_trips_per_op", "1", "lower"},
	{"transport.retries_per_op", "1", "lower"},
	{"transport.req_bytes_per_op", "B", "lower"},
	{"transport.resp_bytes_per_op", "B", "lower"},
	{"transport.batch_ops_mean", "1", "higher"},
	{"transport.server_us_per_req", "us", "lower"},
	{"transport.server_busy_frac", "1", "lower"},
	{"transport.op_p95_us", "us", "lower"},
	{"transport.op_p99_us", "us", "lower"},
	{"transport.op_samples", "count", "higher"},
	{"transport.dedup_keys_at_end", "count", "lower"},
	{"wal.appends_per_op", "1", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.fsyncs_per_op", "1", "lower"},
	{"wal.dir_mb_at_end", "MiB", "lower"},
	{"cluster.forwards_per_op", "1", "lower"},
	{"cluster.misdirected", "count", "lower"},
	{"cluster.node_unavailable", "count", "lower"},
	{"client.ondemand_per_slot", "1", "lower"},
	{"client.bundled_ads_per_fetch", "1", "higher"},
	{"client.prefetch_used_frac", "1", "higher"},
	{"client.dropped_expired_frac", "1", "lower"},
	{"adserver.replicas_per_sold", "1", "lower"},
	{"adserver.sold_per_device_day", "1", "higher"},
	{"auction.free_show_frac", "1", "lower"},
	{"energy.ad_saving_frac", "1", "higher"},
	{"energy.retry_j", "J", "lower"},

	// (b) the traced ladder: one wake-up pair, rung by rung.
	{"adserver.pair_ns", "ns", "lower"},
	{"adserver.pair_allocs", "1", "lower"},
	{"shard.route_self_ns", "ns", "lower"},
	{"transport.handler_self_us", "us", "lower"},
	{"transport.handler_allocs", "1", "lower"},
	{"transport.handler_batch_json_us", "us", "lower"},
	{"transport.handler_batch_bin_us", "us", "lower"},
	{"transport.handler_batch_bin_tenant_us", "us", "lower"},
	{"transport.handler_batch_json_allocs", "1", "lower"},
	{"transport.handler_batch_bin_allocs", "1", "lower"},
	{"transport.handler_batch_bin_tenant_allocs", "1", "lower"},
	{"wal.append_self_us", "us", "lower"},
	{"wal.append_allocs", "1", "lower"},
	{"wal.fsync_self_us", "us", "lower"},
	{"client.device_self_us", "us", "lower"},
	{"transport.loopback_self_us", "us", "lower"},
	{"transport.loopback_allocs", "1", "lower"},
	{"transport.loopback_bin_self_us", "us", "lower"},
	{"cluster.router_self_us", "us", "lower"},
	{"cluster.forward_self_us", "us", "lower"},
	{"cluster.proxy_allocs", "1", "lower"},
	{"cluster.proxy3_self_us", "us", "lower"},

	// (c) isolated calls.
	{"adserver.topup_us", "us", "lower"},
	{"adserver.start_period_us_per_client", "us", "lower"},
	{"adserver.start_period_predictive_us_per_client", "us", "lower"},
	{"adserver.end_period_us_per_client", "us", "lower"},
	{"overbook.plan_one_ns", "ns", "lower"},
	{"auction.sell_ns", "ns", "lower"},
	{"predict.observe_predict_ns", "ns", "lower"},
	{"tenant.admit_ns", "ns", "lower"},
	{"trace.user_at_us", "us", "lower"},
	{"radio.transfer_ns", "ns", "lower"},
	{"client.cache_take_ns", "ns", "lower"},
	{"obs.middleware_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"simclock.wakeheap_pushpop_ns", "ns", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.append_fsync_us", "us", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.recover_us_per_record", "us", "lower"},
	{"wal.snapshot_mb_per_s", "MiB/s", "higher"},
	{"bench.rounds", "count", "higher"},
	{"bench.calib_ns", "ns", "lower"},
	{"bench.calib_drift_frac", "1", "lower"},
	{"bench.trace_overhead_frac", "1", "lower"},
}

// metricValue is one reported number in the contract's result form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns measured values into the result's metric map: every name
// of the table must have been measured, and nothing else may be.
func report(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from the table: %v", extra)
	}
	return out, nil
}
