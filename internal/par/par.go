// Package par provides the shared worker-pool parallel-for used by the
// experiment harnesses and the fleet runner. Each simulation owns its
// cluster, clock and RNG, so independent runs parallelise perfectly;
// callers write results to pre-sized slices indexed by i, keeping
// output order deterministic regardless of scheduling.
//
// The worker count defaults to GOMAXPROCS and can be overridden by the
// SMR_WORKERS environment variable (or an explicit count via ForN) —
// useful for pinning benchmarks to a worker count and for scaling
// curves on machines whose core count differs from the target.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

// Workers returns the default worker count: the value of the
// SMR_WORKERS environment variable when set to a positive integer,
// otherwise GOMAXPROCS. It is read per call, so tests can flip the
// override with t.Setenv.
func Workers() int {
	if s := os.Getenv("SMR_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Width is the number of workers a pool over n iterations runs: a
// non-positive workers means Workers(), and the count never exceeds n.
// Callers that keep per-worker state size it with Width.
func Width(n, workers int) int {
	if workers <= 0 {
		workers = Workers()
	}
	return min(workers, n)
}

// For runs fn(i) for i in [0, n) across Workers() workers. When several
// iterations fail, the error from the lowest index is returned —
// deterministic regardless of which goroutine reported first.
func For(n int, fn func(i int) error) error {
	return ForN(n, 0, func(_, i int) error { return fn(i) })
}

// ForN is For with an explicit worker count (non-positive means
// Workers()) and the worker's identity passed to fn. Worker ids are
// dense in [0, workers); each id is owned by exactly one goroutine for
// the whole call, so fn may keep per-worker state (scratch arenas,
// pooled simulation substrate) in a slice indexed by worker without
// synchronisation.
func ForN(n, workers int, fn func(worker, i int) error) error {
	return ForNUntil(n, workers, nil, fn)
}

// ForNUntil is ForN with a stop predicate for resumable sweeps: stop
// is polled before each iteration is handed to a worker, and once it
// reports true no further iterations start — in-flight iterations
// finish normally and their results stand. Skipped iterations are not
// an error; the caller knows which iterations ran by what fn recorded
// (a journal, a result slice). stop may be called concurrently from
// every worker and must be safe for that; nil means never stop.
func ForNUntil(n, workers int, stop func() bool, fn func(worker, i int) error) error {
	workers = Width(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop != nil && stop() {
				return nil
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = -1
		minErr error
	)
	// One buffer slot per worker: the dispatcher stays a full round
	// ahead, so a worker finishing an iteration dequeues the next index
	// immediately instead of blocking on a rendezvous with the
	// dispatcher goroutine.
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				// Re-check on the worker side too: the dispatcher runs a
				// full round ahead, and a buffered index should not start
				// after the stop — only genuinely in-flight work finishes.
				if stop != nil && stop() {
					continue
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, minErr = i, err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if stop != nil && stop() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return minErr
}
