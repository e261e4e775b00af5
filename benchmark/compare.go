package main

import (
	"fmt"
	"io"
	"math"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []benchWL     `json:"workloads"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	Workload, Metric string
	A, B             summary
	// Worse is how much B's median is worse than A's, as a share of A's
	// (negative: better), in the metric's own direction.
	Worse   float64
	Bound   float64
	Verdict string
}

// compareRuns judges B against A on every workload × end-to-end metric
// both documents hold, with the bounds and directions of spec. A row
// breaches when B's median is worse by more than the bound and the
// difference is resolvable: the spread of both sides sits within the
// bound, or every run of B reads worse than every run of A. Where the
// spread exceeds the bound and the runs overlap, the row is unresolved —
// not unchanged.
func compareRuns(a, b repeatDoc, spec benchSpec) (rows []compareRow, breach bool) {
	for _, w := range workloads {
		sa, sb := a.Summary[w.Name], b.Summary[w.Name]
		for _, m := range spec.EndToEnd {
			ma, oka := sa[m.Name]
			mb, okb := sb[m.Name]
			if !oka || !okb {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, A: ma, B: mb, Bound: m.Bound, Verdict: verdictOK}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			if ma.Median != 0 {
				row.Worse = sign * (mb.Median - ma.Median) / math.Abs(ma.Median)
			}
			va, vb := runValues(a, w.Name, m.Name), runValues(b, w.Name, m.Name)
			noisy := math.Max(ma.Spread, mb.Spread) > m.Bound
			switch {
			case row.Worse > m.Bound && (!noisy || separated(va, vb, sign)):
				row.Verdict = verdictBreach
				breach = true
			case noisy && !separated(vb, va, sign):
				row.Verdict = verdictUnresolved
			}
			rows = append(rows, row)
		}
	}
	return rows, breach
}

func runValues(d repeatDoc, wl, metric string) []float64 {
	var vs []float64
	for _, r := range d.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// separated reports whether every value of worse reads worse than every
// value of better (sign +1: larger is worse; -1: smaller is worse).
func separated(better, worse []float64, sign float64) bool {
	if len(better) == 0 || len(worse) == 0 {
		return false
	}
	maxBetter, minWorse := math.Inf(-1), math.Inf(1)
	for _, v := range better {
		maxBetter = math.Max(maxBetter, sign*v)
	}
	for _, v := range worse {
		minWorse = math.Min(minWorse, sign*v)
	}
	return minWorse > maxBetter
}

// compareDocs is --compare: load, judge, print one row per workload ×
// metric; breach reports whether any row breached its bound.
func compareDocs(out io.Writer, pathA, pathB, specPath string) (breach bool, err error) {
	var a, b repeatDoc
	var spec benchSpec
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if ca, cb := calibOf(a), calibOf(b); ca > 0 && cb > 0 {
		fmt.Fprintf(out, "calibration loop: A %.0f ns, B %.0f ns (B/A %.3f)\n", ca, cb, cb/ca)
		if r := cb / ca; r > 1.10 || r < 0.90 {
			fmt.Fprintln(out, "WARNING: the two documents were measured on machines (or moments) more than 10% apart; timing rows compare the machines, not the code")
		}
	}
	rows, breach := compareRuns(a, b, spec)
	if len(rows) == 0 {
		return false, fmt.Errorf("the documents share no workload × end-to-end metric")
	}
	fmt.Fprintf(out, "%-22s %-28s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-28s %14.6g %14.6g %+8.2f%% %7.1f%% %7.2f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, 100*r.Worse, 100*r.Bound,
			100*math.Max(r.A.Spread, r.B.Spread), r.Verdict)
	}
	return breach, nil
}

// calibOf is the median calibration time over a document's runs.
func calibOf(d repeatDoc) float64 {
	var vs []float64
	for _, r := range d.Runs {
		if r.Env.CalibBeforeNS > 0 {
			vs = append(vs, r.Env.CalibBeforeNS)
		}
	}
	return median(vs)
}
