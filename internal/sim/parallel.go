package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// RunParallel executes independent simulation runs concurrently, one
// worker per CPU (each Run is single-threaded and deterministic, so
// results are identical to running them sequentially). Results are
// returned in input order; the first error aborts the batch.
func RunParallel(cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = Run(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: run %d: %w", i, err)
		}
	}
	return results, nil
}
