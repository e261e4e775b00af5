package transport

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adserver"
	"repro/internal/auction"
)

// checkAddCoversEveryField sets every leaf field of *a and *b (nested
// structs included) to a distinct value, calls add, and checks each leaf
// of *a: a field named in keep must hold a's own value, every other one
// the sum of both sides. A leaf that is neither a number nor kept fails
// the test, so a field added to a merged view later has to be
// classified — summed by Add or kept by the receiver — before the
// suite passes.
func checkAddCoversEveryField(t *testing.T, a, b any, add func(), keep ...string) {
	t.Helper()
	type leaf struct {
		path   string
		va, vb reflect.Value
	}
	var leaves []leaf
	var walk func(va, vb reflect.Value, prefix string)
	walk = func(va, vb reflect.Value, prefix string) {
		for i := 0; i < va.NumField(); i++ {
			path := prefix + va.Type().Field(i).Name
			if va.Field(i).Kind() == reflect.Struct {
				walk(va.Field(i), vb.Field(i), path+".")
				continue
			}
			leaves = append(leaves, leaf{path, va.Field(i), vb.Field(i)})
		}
	}
	walk(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), "")
	kept := make(map[string]bool, len(keep))
	for _, k := range keep {
		kept[k] = true
	}
	for i, l := range leaves {
		switch l.va.Kind() {
		case reflect.Int, reflect.Int64:
			l.va.SetInt(int64(i + 1))
			l.vb.SetInt(int64(100 * (i + 1)))
		case reflect.Float64:
			l.va.SetFloat(float64(i+1) + 0.25)
			l.vb.SetFloat(float64(100*(i+1)) + 0.5)
		case reflect.String:
			if !kept[l.path] {
				t.Fatalf("%s is a string: list it as kept or teach Add and this test to merge it", l.path)
			}
			l.va.SetString(fmt.Sprintf("a%d", i))
			l.vb.SetString(fmt.Sprintf("b%d", i))
		default:
			t.Fatalf("%s has kind %s: teach Add and this test to merge it", l.path, l.va.Kind())
		}
	}
	add()
	for i, l := range leaves {
		var got, want any
		switch l.va.Kind() {
		case reflect.Int, reflect.Int64:
			got, want = l.va.Int(), int64(101*(i+1))
			if kept[l.path] {
				want = int64(i + 1)
			}
		case reflect.Float64:
			got, want = l.va.Float(), float64(101*(i+1))+0.75
			if kept[l.path] {
				want = float64(i+1) + 0.25
			}
		case reflect.String:
			got, want = l.va.String(), fmt.Sprintf("a%d", i)
		}
		if got != want {
			t.Errorf("Add left %s = %v, want %v", l.path, got, want)
		}
	}
}

func TestPeriodStartReplyAddSumsEveryField(t *testing.T) {
	var a, b PeriodStartReply
	checkAddCoversEveryField(t, &a, &b, func() { a.Add(b) })

	// One shard's round becomes its share field for field: every
	// PeriodStats field lands in the same-named reply field.
	var st adserver.PeriodStats
	vs := reflect.ValueOf(&st).Elem()
	for i := 0; i < vs.NumField(); i++ {
		switch f := vs.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) + 0.25)
		default:
			t.Fatalf("PeriodStats.%s has kind %s: teach periodStartPart and this test to carry it", vs.Type().Field(i).Name, f.Kind())
		}
	}
	part := reflect.ValueOf(periodStartPart(st, 7))
	for i := 0; i < vs.NumField(); i++ {
		name := vs.Type().Field(i).Name
		f := part.FieldByName(name)
		if !f.IsValid() || !f.Equal(vs.Field(i)) {
			t.Errorf("periodStartPart dropped PeriodStats.%s", name)
		}
	}
	if part.Interface().(PeriodStartReply).BundledClients != 7 {
		t.Error("periodStartPart dropped the bundled count")
	}
}

func TestPeriodEndReplyAddSumsEveryField(t *testing.T) {
	var a, b PeriodEndReply
	checkAddCoversEveryField(t, &a, &b, func() { a.Add(b) })
}

// TenantHealth.Add sums the counters and the ledger; the config fields
// are the receiver's.
func TestTenantHealthAddSumsCountersKeepsConfig(t *testing.T) {
	var a, b TenantHealth
	checkAddCoversEveryField(t, &a, &b, func() { a.Add(b) }, "Tenant", "MaxOpenBook", "RatePerSec")
}

func TestMergeStats(t *testing.T) {
	s := func(p50 float64, rounds int64) adserver.OpsStats {
		return adserver.OpsStats{Rounds: rounds, ForecastErrP50: p50, ForecastErrP95: 2 * p50}
	}
	// wmean is Σ rᵢ·pᵢ / Σ rᵢ evaluated in float64 at run time (a
	// constant expression would be exact and differ in the last bit).
	wmean := func(rs []int64, ps []float64) float64 {
		var sum float64
		var n int64
		for i := range rs {
			sum += float64(rs[i]) * ps[i]
			n += rs[i]
		}
		return sum / float64(n)
	}
	shard := func(st adserver.OpsStats) StatsReply {
		return StatsReply{Shards: 1, Rounds: st.Rounds, ForecastErrP50: st.ForecastErrP50,
			ForecastErrP95: st.ForecastErrP95, PerShard: []adserver.OpsStats{st}}
	}
	for _, tc := range []struct {
		name  string
		parts []StatsReply
		want  StatsReply
	}{
		{"no parts", nil, StatsReply{}},
		{
			// Two shards one round each: the plain mean of the two.
			"equal rounds",
			[]StatsReply{shard(s(0.25, 1)), shard(s(0.75, 1))},
			StatsReply{Shards: 2, Rounds: 2, ForecastErrP50: (0.25 + 0.75) / 2, ForecastErrP95: (0.5 + 1.5) / 2,
				PerShard: []adserver.OpsStats{s(0.25, 1), s(0.75, 1)}},
		},
		{
			"rounds-weighted",
			[]StatsReply{shard(s(0.1, 1)), shard(s(0.3, 3))},
			StatsReply{Shards: 2, Rounds: 4,
				ForecastErrP50: wmean([]int64{1, 3}, []float64{0.1, 0.3}),
				ForecastErrP95: wmean([]int64{1, 3}, []float64{0.2, 0.6}),
				PerShard:       []adserver.OpsStats{s(0.1, 1), s(0.3, 3)}},
		},
		{
			// A shard that never trained carries no weight; with no
			// rounds anywhere the quantiles are zero, not NaN.
			"zero rounds",
			[]StatsReply{shard(s(0.9, 0)), shard(s(0.4, 0))},
			StatsReply{Shards: 2, PerShard: []adserver.OpsStats{s(0.9, 0), s(0.4, 0)}},
		},
		{
			"zero-round part carries no weight",
			[]StatsReply{shard(s(0.9, 0)), shard(s(0.4, 2))},
			StatsReply{Shards: 2, Rounds: 2, ForecastErrP50: 2 * 0.4 / 2, ForecastErrP95: 2 * 0.8 / 2,
				PerShard: []adserver.OpsStats{s(0.9, 0), s(0.4, 2)}},
		},
		{
			// Node replies at the router: PerShard concatenates in
			// part order, and the weights are the nodes' round totals.
			"nodes",
			[]StatsReply{
				MergeStats([]StatsReply{shard(s(0.1, 1)), shard(s(0.2, 2))}),
				MergeStats([]StatsReply{shard(s(0.3, 3))}),
			},
			StatsReply{Shards: 3, Rounds: 6,
				ForecastErrP50: wmean([]int64{3, 3}, []float64{wmean([]int64{1, 2}, []float64{0.1, 0.2}), 0.3}),
				ForecastErrP95: wmean([]int64{3, 3}, []float64{wmean([]int64{1, 2}, []float64{0.2, 0.4}), 0.6}),
				PerShard:       []adserver.OpsStats{s(0.1, 1), s(0.2, 2), s(0.3, 3)}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := MergeStats(tc.parts); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("MergeStats = %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestMergeConfig(t *testing.T) {
	got := MergeConfig([]ConfigReply{
		{Epoch: 3, Tenants: 2, Applied: false},
		{Epoch: 4, Tenants: 1, Applied: true},
		{Epoch: 2, Tenants: 5, Applied: false},
	})
	if want := (ConfigReply{Epoch: 4, Tenants: 5, Applied: true}); got != want {
		t.Fatalf("MergeConfig = %+v, want %+v", got, want)
	}
	if got := MergeConfig([]ConfigReply{{Epoch: 4, Tenants: 2}, {Epoch: 4, Tenants: 2}}); got.Applied {
		t.Fatal("an all-repeat push reported applied")
	}
}

// TestMergeHealth pins the router's health merge rules: WAL enabled is
// OR-ed, last_fsync_ok AND-ed, snapshot age and config epoch take the
// maximum, tenant sections merge by id and come out sorted, totals sum
// over reachable members, and status is "degraded" with any member
// down, else the last non-"ok" member status.
func TestMergeHealth(t *testing.T) {
	up := func(i int, h HealthReply) NodeHealth {
		return NodeHealth{Node: i, URL: fmt.Sprintf("http://n%d", i), State: "active", Detail: &h}
	}
	down := func(i int) NodeHealth {
		return NodeHealth{Node: i, URL: fmt.Sprintf("http://n%d", i), State: "active", Down: true}
	}
	ok := HealthReply{Status: "ok", LastFsyncOK: true}
	led := func(sold int64) auction.Ledger {
		return auction.Ledger{Sold: sold, Billed: sold, BilledUSD: float64(sold) / 4}
	}
	for _, tc := range []struct {
		name  string
		nodes []NodeHealth
		want  func(nodes []NodeHealth) HealthReply
	}{
		{
			"totals sum, wal or, fsync and, ages max",
			[]NodeHealth{
				up(0, HealthReply{Status: "ok", RequestsTotal: 3, ShedTotal: 1, ReplayedTotal: 2, ReplayedOps: 5,
					WALEnabled: false, LastFsyncOK: true, SnapshotAgePeriods: 4, ConfigEpoch: 2}),
				up(1, HealthReply{Status: "ok", RequestsTotal: 7, ShedTotal: 2, ReplayedTotal: 1, ReplayedOps: 6,
					WALEnabled: true, LastFsyncOK: false, SnapshotAgePeriods: 1, ConfigEpoch: 5}),
				up(2, HealthReply{Status: "ok", RequestsTotal: 1, WALEnabled: false, LastFsyncOK: true,
					SnapshotAgePeriods: 2, ConfigEpoch: 3}),
			},
			func(nodes []NodeHealth) HealthReply {
				return HealthReply{Status: "ok", RequestsTotal: 11, ShedTotal: 3, ReplayedTotal: 3, ReplayedOps: 11,
					WALEnabled: true, LastFsyncOK: false, SnapshotAgePeriods: 4, ConfigEpoch: 5, Nodes: nodes}
			},
		},
		{
			"no wal anywhere: fsync vacuously ok",
			[]NodeHealth{up(0, ok), up(1, ok)},
			func(nodes []NodeHealth) HealthReply {
				return HealthReply{Status: "ok", LastFsyncOK: true, Nodes: nodes}
			},
		},
		{
			// The first reachable member's config fields stand; counters
			// and ledgers sum; ids come out sorted whatever order the
			// members listed them in.
			"tenants merge by id, sorted",
			[]NodeHealth{
				up(0, HealthReply{Status: "ok", LastFsyncOK: true, Tenants: []TenantHealth{
					{Tenant: "pubB", OpenBook: 1, MaxOpenBook: 8, RatePerSec: 2, Admitted: 4, Shed: 1, Ledger: led(4)},
				}}),
				up(1, HealthReply{Status: "ok", LastFsyncOK: true, Tenants: []TenantHealth{
					{Tenant: "pubA", OpenBook: 2, Admitted: 3, Ledger: led(8)},
					{Tenant: "pubB", OpenBook: 5, MaxOpenBook: 8, RatePerSec: 2, Admitted: 6, Shed: 2, Ledger: led(12)},
				}}),
			},
			func(nodes []NodeHealth) HealthReply {
				return HealthReply{Status: "ok", LastFsyncOK: true, Nodes: nodes, Tenants: []TenantHealth{
					{Tenant: "pubA", OpenBook: 2, Admitted: 3, Ledger: led(8)},
					{Tenant: "pubB", OpenBook: 6, MaxOpenBook: 8, RatePerSec: 2, Admitted: 10, Shed: 3, Ledger: led(16)},
				}}
			},
		},
		{
			// A down member contributes nothing but the count, and its
			// absence outranks any reachable member's status.
			"down member degrades",
			[]NodeHealth{up(0, HealthReply{Status: "shedding", RequestsTotal: 2, LastFsyncOK: true}), down(1)},
			func(nodes []NodeHealth) HealthReply {
				return HealthReply{Status: "degraded", RequestsTotal: 2, LastFsyncOK: true, NodesDown: 1, Nodes: nodes}
			},
		},
		{
			"last non-ok status wins",
			[]NodeHealth{
				up(0, HealthReply{Status: "shedding", LastFsyncOK: true}),
				up(1, ok),
				up(2, HealthReply{Status: "draining", LastFsyncOK: true}),
				up(3, ok),
			},
			func(nodes []NodeHealth) HealthReply {
				return HealthReply{Status: "draining", LastFsyncOK: true, Nodes: nodes}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeHealth(tc.nodes)
			if want := tc.want(tc.nodes); !reflect.DeepEqual(got, want) {
				t.Fatalf("MergeHealth = %+v\nwant %+v", got, want)
			}
		})
	}
}
