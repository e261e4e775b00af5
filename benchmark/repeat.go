package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// repeatDoc is what --repeat saves and --compare reads: every run made,
// and per workload × metric the median, quartiles and spread.
type repeatDoc struct {
	Seconds float64                       `json:"seconds"`
	Trace   int                           `json:"trace"`
	Runs    []runDoc                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

// repeatRuns runs each workload (or only wl, if named) n times in fresh
// child processes — seeds seed, seed+1, … — so no run inherits another's
// heap, page cache of WAL files, or warmed connection pools.
func repeatRuns(out io.Writer, wl string, n int, seed int64, seconds float64, trace int, path string) error {
	names := workloadNames()
	if wl != "" {
		if _, ok := workloadByName(wl); !ok {
			return fmt.Errorf("unknown workload %q (want one of %v)", wl, names)
		}
		names = []string{wl}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := repeatDoc{Seconds: seconds, Trace: trace}
	for _, name := range names {
		saved := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", name, trace))
		for i := 0; i < n; i++ {
			if err := os.Remove(saved); err != nil && !os.IsNotExist(err) {
				return err
			}
			cmd := exec.Command(self,
				"--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d of %d: %w", name, i+1, n, err)
			}
			var rd runDoc
			if err := readJSON(saved, &rd); err != nil {
				return fmt.Errorf("%s run %d: reading its document: %w", name, i+1, err)
			}
			doc.Runs = append(doc.Runs, rd)
		}
	}
	doc.summarize()
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	doc.print(out)
	fmt.Fprintf(out, "saved %s\n", path)
	return nil
}

func (d *repeatDoc) summarize() {
	values := map[string]map[string][]float64{}
	for _, r := range d.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	d.Summary = map[string]map[string]summary{}
	for wl, byMetric := range values {
		d.Summary[wl] = map[string]summary{}
		for name, vs := range byMetric {
			d.Summary[wl][name] = summarize(vs)
		}
	}
}

// metricOrder lists names in table order (end-to-end, then per-layer),
// restricted to those present.
func metricOrder(present map[string]summary) []string {
	var names []string
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := present[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
	}
	return names
}

func (d *repeatDoc) print(out io.Writer) {
	wls := make([]string, 0, len(d.Summary))
	for wl := range d.Summary {
		wls = append(wls, wl)
	}
	sort.Slice(wls, func(i, j int) bool { return workloadIndex(wls[i]) < workloadIndex(wls[j]) })
	for _, wl := range wls {
		fmt.Fprintf(out, "%s\n  %-46s %3s %14s %14s %14s %8s\n", wl, "metric", "n", "median", "q1", "q3", "spread")
		for _, name := range metricOrder(d.Summary[wl]) {
			s := d.Summary[wl][name]
			fmt.Fprintf(out, "  %-46s %3d %14.6g %14.6g %14.6g %7.2f%%\n", name, s.N, s.Median, s.Q1, s.Q3, 100*s.Spread)
		}
	}
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return len(workloads)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
