package mr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"smapreduce/internal/resource"
)

// fluidHarness gives tests a cluster whose clock only carries the
// events they create.
func fluidHarness() *Cluster {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Net.Nodes = 2
	return MustNewCluster(cfg)
}

func TestOpCompletesAtExactTime(t *testing.T) {
	c := fluidHarness()
	done := -1.0
	c.Mutate(func() {
		c.addOp(10, func() float64 { return 2 }, func(*fluidOp) { done = c.clock.Now() })
	})
	c.clock.RunUntilIdle(100)
	if done != 5 {
		t.Fatalf("completed at %v, want 5", done)
	}
}

func TestOpRateChangeMidFlight(t *testing.T) {
	c := fluidHarness()
	rate := 2.0
	done := -1.0
	c.Mutate(func() {
		c.addOp(10, func() float64 { return rate }, func(*fluidOp) { done = c.clock.Now() })
	})
	// At t=2.5 (half done), halve the rate: the remaining 5 units take
	// 5 more seconds → completion at 7.5.
	c.clock.Schedule(2.5, "slow", func() {
		c.Mutate(func() { rate = 1 })
	})
	c.clock.RunUntilIdle(100)
	if math.Abs(done-7.5) > 1e-9 {
		t.Fatalf("completed at %v, want 7.5", done)
	}
}

func TestOpZeroRateStalls(t *testing.T) {
	c := fluidHarness()
	rate := 0.0
	done := -1.0
	c.Mutate(func() {
		c.addOp(4, func() float64 { return rate }, func(*fluidOp) { done = c.clock.Now() })
	})
	c.clock.Schedule(10, "start", func() {
		c.Mutate(func() { rate = 2 })
	})
	c.clock.RunUntilIdle(100)
	if math.Abs(done-12) > 1e-9 {
		t.Fatalf("completed at %v, want 12 (stalled until 10, then 2s of work)", done)
	}
}

func TestTopUpExtendsCompletion(t *testing.T) {
	c := fluidHarness()
	done := -1.0
	total := -1.0
	var op *fluidOp
	c.Mutate(func() {
		op = c.addOp(10, func() float64 { return 2 }, func(*fluidOp) {
			done = c.clock.Now()
			// Fields are intact during onDone; afterwards the op may be
			// reset and recycled by the pool.
			total = op.total
		})
	})
	c.clock.Schedule(2, "topup", func() {
		c.Mutate(func() { c.topUpOp(op, 6) })
	})
	c.clock.RunUntilIdle(100)
	// 10 + 6 = 16 units at rate 2 → 8 seconds.
	if math.Abs(done-8) > 1e-9 {
		t.Fatalf("completed at %v, want 8", done)
	}
	if total != 16 {
		t.Fatalf("total = %v, want 16", total)
	}
}

func TestDropOpCancels(t *testing.T) {
	c := fluidHarness()
	fired := false
	var op *fluidOp
	c.Mutate(func() {
		op = c.addOp(10, func() float64 { return 2 }, func(*fluidOp) { fired = true })
	})
	c.clock.Schedule(1, "drop", func() {
		c.Mutate(func() { c.dropOp(op) })
	})
	c.clock.RunUntilIdle(100)
	if fired {
		t.Fatal("dropped op completed")
	}
	// Dropping again is a no-op; dropping nil is a no-op.
	c.Mutate(func() { c.dropOp(op); c.dropOp(nil) })
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	c := fluidHarness()
	done := -1.0
	c.Mutate(func() {
		c.addOp(0, func() float64 { return 0 }, func(*fluidOp) { done = c.clock.Now() })
	})
	c.clock.RunUntilIdle(10)
	if done != 0 {
		t.Fatalf("zero-work op completed at %v, want 0", done)
	}
}

func TestAddOpOutsideMutatePanics(t *testing.T) {
	c := fluidHarness()
	defer func() {
		if recover() == nil {
			t.Fatal("addOp outside Mutate did not panic")
		}
	}()
	c.addOp(1, func() float64 { return 1 }, nil)
}

func TestAddOpInvalidWorkPanics(t *testing.T) {
	c := fluidHarness()
	for _, w := range []float64{-1, math.NaN()} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("addOp(%v) did not panic", w)
				}
			}()
			c.Mutate(func() { c.addOp(w, func() float64 { return 1 }, nil) })
		}()
	}
}

// TestInvalidWorkPanicNamesTask pins that a task op's panic still names
// its job and task although nothing formats a label up front: the
// typed identity is formatted when the message is built.
func TestInvalidWorkPanicNamesTask(t *testing.T) {
	c := fluidHarness()
	j := &Job{Spec: JobSpec{Name: "wordcount"}}
	m := &mapTask{job: j, id: 7}
	r := &reduceTask{job: j, partition: 2}
	cases := []struct {
		start func()
		want  string
	}{
		{func() {
			c.addNodeOp(0, opID{kind: opSort, m: m}, math.NaN(), resource.Activity{Kind: resource.CPU}, nil)
		}, `"sort wordcount/7"`},
		{func() { c.startFlow(opID{kind: opShuffle, r: r, peer: 1}, 1, 0, -1, 0, nil) }, `"shuffle wordcount/r2<-1"`},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "invalid work") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want an invalid-work panic naming %s", msg, tc.want)
				}
			}()
			c.Mutate(tc.start)
		}()
	}
}

func TestTopUpErrors(t *testing.T) {
	c := fluidHarness()
	var op *fluidOp
	c.Mutate(func() {
		op = c.addOp(1, func() float64 { return 1 }, nil)
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("topUp outside Mutate did not panic")
			}
		}()
		c.topUpOp(op, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative topUp did not panic")
			}
		}()
		c.Mutate(func() { c.topUpOp(op, -1) })
	}()
	c.Mutate(func() { c.dropOp(op) })
	defer func() {
		if recover() == nil {
			t.Fatal("topUp on retired op did not panic")
		}
	}()
	c.Mutate(func() { c.topUpOp(op, 1) })
}

func TestFractionBounds(t *testing.T) {
	op := &fluidOp{total: 10, remaining: 10}
	if op.fraction() != 0 {
		t.Fatalf("fraction = %v, want 0", op.fraction())
	}
	op.remaining = 5
	if op.fraction() != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", op.fraction())
	}
	op.remaining = 0
	if op.fraction() != 1 {
		t.Fatalf("fraction = %v, want 1", op.fraction())
	}
	op.remaining = -1 // clamped
	if op.fraction() != 1 {
		t.Fatal("overshoot not clamped")
	}
	zero := &fluidOp{}
	if zero.fraction() != 1 {
		t.Fatal("zero-total fraction != 1")
	}
}

func TestNestedMutateSettlesOnce(t *testing.T) {
	c := fluidHarness()
	var op *fluidOp
	c.Mutate(func() {
		op = c.addOp(10, func() float64 { return 1 }, nil)
		c.Mutate(func() {
			// Nested scope: op must exist and be untouched.
			if !c.hasOp(op) {
				t.Fatal("op lost in nested mutate")
			}
		})
	})
	if op.lastRate != 1 {
		t.Fatalf("rate not refreshed at outer exit: %v", op.lastRate)
	}
}

func TestManyOpsShareAndComplete(t *testing.T) {
	// N ops with equal rates complete at staggered exact times.
	c := fluidHarness()
	var dones []float64
	c.Mutate(func() {
		for i := 1; i <= 5; i++ {
			i := i
			c.addOp(float64(i), func() float64 { return 1 }, func(*fluidOp) {
				dones = append(dones, c.clock.Now())
			})
		}
	})
	c.clock.RunUntilIdle(100)
	if len(dones) != 5 {
		t.Fatalf("completed %d ops, want 5", len(dones))
	}
	for i, d := range dones {
		if math.Abs(d-float64(i+1)) > 1e-9 {
			t.Fatalf("op %d completed at %v, want %d", i, d, i+1)
		}
	}
}
