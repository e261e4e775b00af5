package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceDoc is what the traced run leaves in out/trace.json: the spans
// of every rung's first timed epoch, nested by Parent.
type traceDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracedRun is the separate per-layer run: (a) a short pass of the
// run's own workload for the public counters, (b) the traced ladder,
// (c) isolated calls. It is never mixed with the end-to-end runs.
func tracedRun(w workload, seed int64, workers int, budget time.Duration) (map[string]float64, pooled, []string, error) {
	var pool pooled
	notes := []string{}

	// (a) rounds of the workload for a fifth of the budget, at least one.
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < budget/5; rounds++ {
		rd, err := runRound(w, roundSeed(seed, rounds), workers, outDir)
		if err != nil {
			return nil, pool, nil, fmt.Errorf("counters pass, round %d: %w", rounds, err)
		}
		pool.add(rd)
	}
	if err := validatePooled(w, pool); err != nil {
		return nil, pool, nil, err
	}
	vals := counterMetrics(pool)
	vals["bench.rounds"] = float64(rounds)
	if w.routed {
		notes = append(notes, "transport.server_* are the router's view: on a routed run the server-side registry is the router's; node-side batch_ops, dedup and WAL series are not reachable")
	}
	if !w.wire {
		notes = append(notes, "op_p50/p95/p99 need a per-op clock; the in-process simulator has none, so transport.op_* are 0 here")
	}

	// (b) the ladder, half the budget.
	ladder, sample, lnotes, err := runLadder(seed, budget/2, outDir)
	if err != nil {
		return nil, pool, nil, err
	}
	notes = append(notes, lnotes...)
	for k, v := range ladder {
		vals[k] = v
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), traceDoc{Workload: w.Name, Seed: seed, Spans: sample}); err != nil {
		return nil, pool, nil, err
	}
	fmt.Fprintf(os.Stderr, "adbench: wrote %d spans to %s\n", len(sample), filepath.Join(outDir, "trace.json"))

	// (c) isolated calls, a quarter of the budget.
	iso, err := runIsolated(seed, budget/4, outDir)
	if err != nil {
		return nil, pool, nil, err
	}
	for k, v := range iso {
		vals[k] = v
	}
	return vals, pool, notes, nil
}
