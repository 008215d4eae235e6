package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForRunsAll(t *testing.T) {
	var ran atomic.Int64
	if err := For(100, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d iterations, want 100", ran.Load())
	}
}

func TestForLowestIndexErrorWins(t *testing.T) {
	// Errors injected at two indices: the lower one must be reported,
	// no matter which goroutine finishes first. The high-index failure
	// returns instantly while the low-index one is delayed behind real
	// work, biasing the race toward the wrong answer if selection were
	// first-wins. Workers are pinned to 4 so the concurrent path runs
	// even when GOMAXPROCS is 1.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := ForN(64, 4, func(_, i int) error {
			switch i {
			case 3:
				// Busy work so index 3 reports after index 60.
				s := 0.0
				for k := 0; k < 100000; k++ {
					s += float64(k)
				}
				if s < 0 {
					return fmt.Errorf("unreachable")
				}
				return errLow
			case 60:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want error from lowest index", trial, err)
		}
	}
}

func TestForSerialPath(t *testing.T) {
	// n = 1 exercises the serial fallback, which stops at the first
	// error (lowest index by construction).
	want := errors.New("boom")
	if err := For(1, func(i int) error { return want }); !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestForNWorkerIdentity(t *testing.T) {
	// Each worker id must be owned by exactly one goroutine, so
	// unsynchronised per-worker counters indexed by worker id are safe
	// and their sum accounts for every iteration. Run under -race this
	// also proves the ownership claim.
	const n, workers = 500, 4
	counts := make([]int64, workers)
	if err := ForN(n, workers, func(worker, i int) error {
		if worker < 0 || worker >= workers {
			return fmt.Errorf("worker id %d out of range", worker)
		}
		counts[worker]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("worker counts sum to %d, want %d", total, n)
	}
}

func TestForNSerialWorkerZero(t *testing.T) {
	// workers=1 routes everything through worker id 0 on the caller's
	// goroutine.
	if err := ForN(10, 1, func(worker, i int) error {
		if worker != 0 {
			return fmt.Errorf("serial path got worker %d", worker)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWidth(t *testing.T) {
	t.Setenv("SMR_WORKERS", "3")
	cases := []struct{ n, workers, want int }{
		{10, 0, 3},  // non-positive: Workers()
		{10, -2, 3}, // non-positive: Workers()
		{2, 0, 2},   // Workers() capped at n
		{10, 5, 5},  // explicit count
		{4, 8, 4},   // explicit count capped at n
		{0, 0, 0},   // nothing to run: no workers
	}
	for _, c := range cases {
		if got := Width(c.n, c.workers); got != c.want {
			t.Errorf("Width(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv("SMR_WORKERS", "3")
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d with SMR_WORKERS=3", got)
	}
	t.Setenv("SMR_WORKERS", "0") // non-positive: ignored
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d with SMR_WORKERS=0, want >=1", got)
	}
	t.Setenv("SMR_WORKERS", "nope") // unparsable: ignored
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d with junk SMR_WORKERS, want >=1", got)
	}
}

func TestForHonoursWorkersEnv(t *testing.T) {
	// With SMR_WORKERS=2 a 100-wide For must still run every index.
	t.Setenv("SMR_WORKERS", "2")
	var ran atomic.Int64
	if err := For(100, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d iterations, want 100", ran.Load())
	}
}

func TestForNUntilNeverStop(t *testing.T) {
	// A nil predicate and an always-false predicate both run everything.
	for _, stop := range []func() bool{nil, func() bool { return false }} {
		var ran atomic.Int64
		if err := ForNUntil(50, 4, stop, func(_, i int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 50 {
			t.Fatalf("ran %d iterations, want 50", ran.Load())
		}
	}
}

func TestForNUntilImmediateStop(t *testing.T) {
	// A predicate that is already true lets nothing start, on both the
	// serial and the concurrent path, and reports no error.
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForNUntil(50, workers, func() bool { return true }, func(_, i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d iterations after an immediate stop", workers, ran.Load())
		}
	}
}

func TestForNUntilStopsEarly(t *testing.T) {
	// Tripping the predicate from inside an iteration bounds how much
	// more can run: the dispatcher buffers at most one round ahead, so
	// after the trip at most (iterations already dispatched) finish —
	// never all n. Every index that does run, runs exactly once.
	const n = 10000
	for _, workers := range []int{1, 4} {
		var stopped atomic.Bool
		var ran atomic.Int64
		seen := make([]atomic.Int32, n)
		err := ForNUntil(n, workers, stopped.Load, func(_, i int) error {
			seen[i].Add(1)
			if ran.Add(1) == 5 {
				stopped.Store(true)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got < 5 || got == n {
			t.Errorf("workers=%d: ran %d of %d iterations; want >=5 and < n", workers, got, n)
		}
		for i := range seen {
			if c := seen[i].Load(); c > 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForNUntilErrorBeatsStop(t *testing.T) {
	// An error from an iteration that ran is reported even if the sweep
	// also stopped.
	want := errors.New("boom")
	var stopped atomic.Bool
	err := ForNUntil(100, 2, stopped.Load, func(_, i int) error {
		if i == 0 {
			stopped.Store(true)
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}
