package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies f to every item on a pool of workers and returns the
// results in input order; workers < 1 selects runtime.GOMAXPROCS(0).
// Each worker claims the next unclaimed index from a shared counter,
// so a slow item delays only its own worker and the pool stays busy
// whatever the cost mix. Results are written by index, so scheduling
// never shows in the output.
//
// Every item runs, even after one fails. The returned slice always
// has len(items) entries, and the error is the lowest-index one, so it
// too is independent of the worker count.
func Map[T, R any](workers int, items []T, f func(T) (R, error)) ([]R, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(items))
	out := make([]R, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i], errs[i] = f(items[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
