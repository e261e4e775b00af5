package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesTables pins BENCHMARK.json to the tables a run prints
// from: same names, units and directions, in the same order, both ways.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s %q: name outside [A-Za-z0-9_.-]", kind, m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: unit %q outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s %q listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if i < len(want) && (m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better) {
				t.Errorf("%s #%d: BENCHMARK.json has %+v, the harness prints %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload #%d: BENCHMARK.json has %+v, the harness has %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}

// TestReportIsExact: a run can only print the table's names — a missing
// measurement and an unlisted one both refuse the result.
func TestReportIsExact(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "1", "higher"}}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatalf("exact set refused: %v", err)
	}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("unlisted metric accepted")
	}
}

// TestRunPrintsEveryName runs the real single-run mode, untraced and
// traced, and checks its last line against BENCHMARK.json both ways.
func TestRunPrintsEveryName(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole simulations")
	}
	spec := loadSpec(t)
	w, _ := workloadByName("diurnal_batched")
	for _, tc := range []struct {
		traced bool
		want   []benchMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		if err := runOnce(&out, w, 7, 2*time.Second, tc.traced); err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("traced=%v: last line is not the result object: %v", tc.traced, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("traced=%v: result %+v", tc.traced, res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json lists %d", tc.traced, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("traced=%v: %s is in BENCHMARK.json but was not printed", tc.traced, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("traced=%v: %s printed in %q, BENCHMARK.json says %q", tc.traced, m.Name, got.Unit, m.Unit)
			case !tc.traced && got.Value == 0:
				t.Errorf("end-to-end metric %s read exactly 0", m.Name)
			}
		}
	}
	var tr traceDoc
	if err := readJSON(filepath.Join(outDir, "trace.json"), &tr); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	depth := 0
	for _, s := range tr.Spans {
		if s.Rung == "rung6" && s.Name == boundaryNames[bNode] {
			for p := s.Parent; p >= 0; p = parentOf(tr.Spans, s.Rung, p) {
				depth++
			}
			break
		}
	}
	if depth != 4 {
		t.Errorf("a routed node-handler span sits %d levels under its op, want 4 (hop2, router, hop1, device)", depth)
	}
}

// parentOf finds span id's parent within one rung's sample.
func parentOf(spans []span, rung string, id int) int {
	for _, s := range spans {
		if s.Rung == rung && s.ID == id {
			return s.Parent
		}
	}
	return -1
}

// TestSelfTimes checks the self-time arithmetic on a hand-built trace:
// nested children, a child that outlives its parent, overlapping
// siblings, and an unfinished span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},   // root: children cover [10,70] and [80,100]
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 50},    // child with its own child
		{ID: 2, Parent: 1, StartNS: 20, EndNS: 30},    // grandchild
		{ID: 3, Parent: 0, StartNS: 40, EndNS: 70},    // overlaps span 1 by 10
		{ID: 4, Parent: 0, StartNS: 80, EndNS: 130},   // outlives the root by 30
		{ID: 5, Parent: 0, StartNS: 90, EndNS: -1},    // never finished
		{ID: 6, Parent: -1, StartNS: 200, EndNS: 260}, // a second op, no children
	}
	want := []int64{
		100 - (60 + 20), // [10,70] once, [80,100] clipped
		40 - 10,
		10,
		30,
		50,
		0,
		60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRecorderNesting drives the recorder the way a routed op does and
// checks the parent chain device → hop1 → router → hop2 → node, and that
// a handler finishing after the batch was drained cannot corrupt the
// next one.
func TestRecorderNesting(t *testing.T) {
	rec := newRecorder("t", topoRouted)
	rec.mode.Store(recAll)
	op := rec.begin(bOp)
	var refs []spanRef
	for i := 0; i < 2; i++ { // two requests under one op
		h1 := rec.begin(bHop1)
		rt := rec.begin(bRouter)
		h2 := rec.begin(bHop2)
		nd := rec.begin(bNode)
		rec.end(nd)
		rec.end(h2)
		rec.end(rt)
		rec.end(h1)
		refs = append(refs, nd)
	}
	rec.end(op)
	spans := rec.drain()
	if len(spans) != 9 {
		t.Fatalf("recorded %d spans, want 9", len(spans))
	}
	wantParent := []int{-1, 0, 1, 2, 3, 0, 5, 6, 7}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Op != 1 {
			t.Errorf("span %d (%s): parent %d op %d, want parent %d op 1", i, s.Name, s.Parent, s.Op, wantParent[i])
		}
	}
	next := rec.begin(bOp)
	rec.end(refs[0]) // stale: belongs to the drained batch
	rec.end(next)
	if got := rec.drain(); len(got) != 1 || got[0].EndNS < got[0].StartNS {
		t.Errorf("stale end touched the next batch: %+v", got)
	}
	rec.mode.Store(recRootOnly)
	if rec.begin(bNode) != noSpan || rec.begin(bOp) == noSpan {
		t.Error("root-only mode must silence the wrappers and keep the op span")
	}
}

// TestQuartilesMatchPython pins the spread to Python's
// statistics.quantiles(vs, n=4), which the contract defines it on.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 10}, 1, 10},
	} {
		q1, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := summarize([]float64{10, 10, 10, 10}); s.Spread != 0 || s.Median != 10 {
		t.Errorf("constant sample: %+v", s)
	}
}

// fakeDoc builds a --repeat document with one workload and one metric.
func fakeDoc(metric string, values ...float64) repeatDoc {
	var d repeatDoc
	for i, v := range values {
		d.Runs = append(d.Runs, runDoc{Workload: workloads[0].Name, Seed: int64(i),
			Result: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{metric: {Value: v}}}})
	}
	d.summarize()
	return d
}

// TestCompare: an A/A pair passes, an injected regression breaches in
// the metric's own direction, and noise wider than the bound is
// reported as unresolved rather than unchanged.
func TestCompare(t *testing.T) {
	spec := benchSpec{EndToEnd: []benchMetric{
		{Name: "ops_per_s", Better: "higher", Bound: 0.15},
		{Name: "op_p50_us", Better: "lower", Bound: 0.20},
	}}
	verdict := func(metric string, a, b []float64) (string, bool) {
		rows, breach := compareRuns(fakeDoc(metric, a...), fakeDoc(metric, b...), spec)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", metric, len(rows))
		}
		return rows[0].Verdict, breach
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	if v, breach := verdict("ops_per_s", steady, steady); v != verdictOK || breach {
		t.Errorf("A/A: %s, breach %v", v, breach)
	}
	if v, breach := verdict("ops_per_s", steady, scale(0.80)); v != verdictBreach || !breach {
		t.Errorf("throughput down 20%% against a 15%% bound: %s, breach %v", v, breach)
	}
	if v, breach := verdict("ops_per_s", steady, scale(1.30)); v != verdictOK || breach {
		t.Errorf("throughput up 30%% is an improvement: %s, breach %v", v, breach)
	}
	if v, breach := verdict("op_p50_us", steady, scale(1.30)); v != verdictBreach || !breach {
		t.Errorf("latency up 30%% against a 20%% bound: %s, breach %v", v, breach)
	}
	if v, breach := verdict("op_p50_us", steady, scale(1.10)); v != verdictOK || breach {
		t.Errorf("latency up 10%% is within a 20%% bound: %s, breach %v", v, breach)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v, breach := verdict("op_p50_us", noisy, noisy); v != verdictUnresolved || breach {
		t.Errorf("spread wider than the bound, overlapping runs: %s, breach %v", v, breach)
	}
	if v, breach := verdict("op_p50_us", noisy, scale(3)); v != verdictBreach || !breach {
		t.Errorf("noisy parent but every run of the change is worse: %s, breach %v", v, breach)
	}
}
