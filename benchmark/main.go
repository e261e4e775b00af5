// Command adbench is the repo's benchmark: four fixed workloads through
// the existing entry points (sim.RunTransportStream, sim.Run), eleven
// end-to-end metrics, and — in a separate traced run — a per-layer cost
// ladder built from exported constructors. See README.md beside this
// file; BENCHMARK.json at the repo root is the machine-readable
// contract.
//
//	run.sh --workload diurnal_batched --seed 1 --seconds 20 --trace 0
//	run.sh --workload routed_binary --seed 1 --seconds 20 --trace 1
//	run.sh --repeat 10 --out out/a.json
//	run.sh --compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds everything the harness writes. The wrapper script runs
// the binary from the harness directory, so the path is relative.
const outDir = "out"

// minTimedRounds is the fewest timed rounds a result may rest on.
const minTimedRounds = 3

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		repeat  = flag.Int("repeat", 0, "run each workload (or the one named) N times in fresh processes and summarize")
		compare = flag.Bool("compare", false, "compare two --repeat documents: adbench --compare a.json b.json")
		outPath = flag.String("out", "", "where --repeat saves its document (default out/repeat.json)")
	)
	flag.Parse()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare wants two documents, got %d", flag.NArg()))
		}
		breach, err := compareDocs(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join("..", "BENCHMARK.json"))
		if err != nil {
			fatal(err)
		}
		if breach {
			os.Exit(1)
		}
	case *repeat > 0:
		path := *outPath
		if path == "" {
			path = filepath.Join(outDir, "repeat.json")
		}
		if err := repeatRuns(os.Stdout, *wlName, *repeat, *seed, *seconds, *trace, path); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*wlName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want one of %v)", *wlName, workloadNames()))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("--trace wants 0 or 1, got %d", *trace))
		}
		if *seconds <= 0 {
			fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
		}
		if err := runOnce(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adbench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runDoc is the saved form of one run: the environment it ran in and
// the result it printed.
type runDoc struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    int        `json:"trace"`
	Env      envRecord  `json:"env"`
	Rounds   int        `json:"rounds"`
	Notes    []string   `json:"notes,omitempty"`
	Result   resultLine `json:"result"`
}

// runOnce is the contract's single-run mode: measure, validate, save
// the document, and print the result as the last line of stdout. A
// validation failure returns an error and prints no result.
func runOnce(stdout io.Writer, w workload, seed int64, budget time.Duration, traced bool) error {
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	env := readEnv(seed)
	env.CalibBeforeNS = calibrate()
	env.print(os.Stderr)

	doc := runDoc{Workload: w.Name, Seed: seed, Seconds: budget.Seconds()}
	var vals map[string]float64
	var defs []metricDef
	var pool pooled
	var err error
	if traced {
		doc.Trace = 1
		defs = perLayer
		vals, pool, doc.Notes, err = tracedRun(w, seed, workers, budget)
		doc.Rounds = int(vals["bench.rounds"])
	} else {
		defs = endToEnd
		vals, pool, doc.Rounds, err = endToEndRun(w, seed, workers, budget)
	}
	if err != nil {
		return err
	}

	env.CalibAfterNS = calibrate()
	env.CalibDriftFrac = env.CalibAfterNS/env.CalibBeforeNS - 1
	if d := env.CalibDriftFrac; d > 0.10 || d < -0.10 {
		fmt.Fprintf(os.Stderr, "adbench: WARNING: calibration loop drifted %+.1f%% during the run; the machine was not steady\n", 100*d)
	}
	if traced {
		vals["bench.calib_ns"] = env.CalibBeforeNS
		vals["bench.calib_drift_frac"] = env.CalibDriftFrac
	}
	doc.Env = env

	metrics, err := report(defs, vals)
	if err != nil {
		return err
	}
	doc.Result = resultLine{Correct: true, Attempted: pool.attempted, Failed: pool.failed, Metrics: metrics}
	if doc.Result.Attempted < 1 {
		return fmt.Errorf("validation: nothing was attempted")
	}

	printTable(stdout, w, defs, metrics, doc)
	name := fmt.Sprintf("run-%s-trace%d.json", w.Name, doc.Trace)
	if err := writeJSON(filepath.Join(outDir, name), doc); err != nil {
		return err
	}
	line, err := json.Marshal(doc.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// endToEndRun is the untraced measurement: one untimed warm-up round,
// then complete rounds until the budget is spent (at least
// minTimedRounds). Timing metrics are the median round's; outcome
// metrics pool every timed round.
func endToEndRun(w workload, seed int64, workers int, budget time.Duration) (map[string]float64, pooled, int, error) {
	var pool pooled
	if _, err := runRound(w, roundSeed(seed, 0), workers, outDir); err != nil {
		return nil, pool, 0, fmt.Errorf("warm-up round: %w", err)
	}
	var rounds []round
	start := time.Now()
	for r := 1; time.Since(start) < budget || len(rounds) < minTimedRounds; r++ {
		rd, err := runRound(w, roundSeed(seed, r), workers, outDir)
		if err != nil {
			return nil, pool, 0, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, rd)
		pool.add(rd)
		fmt.Fprintf(os.Stderr, "adbench: round %d: %d ops, %.0f ops/s, p50 %.1f us (%d samples), cpu %.1f us/op, %.1f allocs/op, set-up %.3f s\n",
			r, rd.ops, rd.opsPerS(), rd.opP50US(), int64(rd.layer.opSamples), rd.cpuUSPerOp(),
			float64(rd.mallocs)/float64(rd.ops), rd.setupS())
	}
	if err := validatePooled(w, pool); err != nil {
		return nil, pool, 0, err
	}

	over := func(f func(round) float64) float64 {
		vs := make([]float64, len(rounds))
		for i, rd := range rounds {
			vs[i] = f(rd)
		}
		return median(vs)
	}
	vals := map[string]float64{
		"ops_per_s":          over(round.opsPerS),
		"op_p50_us":          over(round.opP50US),
		"cpu_us_per_op":      over(round.cpuUSPerOp),
		"allocs_per_op":      over(func(r round) float64 { return float64(r.mallocs) / float64(r.ops) }),
		"alloc_bytes_per_op": over(func(r round) float64 { return float64(r.allocB) / float64(r.ops) }),
		"setup_s":            over(round.setupS),
		"peak_rss_mb":        peakRSSMB(),

		"ad_energy_j_per_device_day": ratio(pool.adJ, pool.deviceDays),
		"sla_met_frac":               1 - pool.ledger.ViolationRate(),
		"revenue_kept_frac":          1 - pool.ledger.RevenueLossFrac(),
		"cache_hit_frac":             pool.counters.HitRate(),
	}
	return vals, pool, len(rounds), nil
}

func printTable(out io.Writer, w workload, defs []metricDef, metrics map[string]metricValue, doc runDoc) {
	fmt.Fprintf(out, "workload %s  seed %d  trace %d  rounds %d\n", w.Name, doc.Seed, doc.Trace, doc.Rounds)
	for _, d := range defs {
		m := metrics[d.Name]
		fmt.Fprintf(out, "  %-46s %16.6g %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	for _, n := range doc.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", doc.Result.Attempted, doc.Result.Failed)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
