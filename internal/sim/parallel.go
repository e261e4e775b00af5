package sim

import (
	"fmt"
	"runtime"
)

// RunParallel executes independent simulation runs concurrently, one
// worker per CPU (each Run is single-threaded and deterministic, so
// results are identical to running them sequentially). Results are
// returned in input order; the first error in input order aborts the
// batch.
func RunParallel(cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	results := make([]*Result, len(cfgs))
	if err := eachDevice(len(cfgs), runtime.GOMAXPROCS(0), func(i int) error {
		r, err := Run(cfgs[i])
		if err != nil {
			return fmt.Errorf("sim: run %d: %w", i, err)
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}
