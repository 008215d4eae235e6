package mr

import (
	"os"
	"testing"
)

// TestHeartbeatZeroAlloc pins the steady-state heartbeat at zero
// allocations: an idle tracker's periodic exchange (rate sampling,
// empty assignment pass, in-place periodic re-arm) must recycle
// everything.
func TestHeartbeatZeroAlloc(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	tt := c.trackers[0]
	c.clock.SchedulePeriodic(0, heartbeatPeriod, tt.hbLabel, tt.hbFn)
	// Warm up: grow the clock arena and EWMA state to steady shape.
	for i := 0; i < 64; i++ {
		c.clock.Step()
	}
	allocs := testing.AllocsPerRun(256, func() {
		c.clock.Step()
	})
	if allocs != 0 {
		t.Fatalf("idle heartbeat allocates %v allocs/op, want 0", allocs)
	}
}

// TestOpPoolRecycles pins the fluidOp free list: a completed op's
// object is handed back by the next acquisition, and Reference
// disables that.
func TestOpPoolRecycles(t *testing.T) {
	if os.Getenv("SMR_REFERENCE") == "1" {
		t.Skip("pooling disabled via SMR_REFERENCE")
	}
	c := MustNewCluster(DefaultConfig())
	var first *fluidOp
	c.Mutate(func() {
		first = c.addOp(1, func() float64 { return 1 }, nil)
	})
	c.clock.RunUntilIdle(100)
	if len(c.sim.ops) != 1 {
		t.Fatalf("pool has %d ops after completion, want 1", len(c.sim.ops))
	}
	var second *fluidOp
	c.Mutate(func() {
		second = c.addOp(1, func() float64 { return 1 }, nil)
	})
	if second != first {
		t.Fatal("pool did not recycle the completed op")
	}
	c.clock.RunUntilIdle(100)

	u := MustNewCluster(func() Config { cfg := DefaultConfig(); cfg.Reference = true; return cfg }())
	u.Mutate(func() {
		first = u.addOp(1, func() float64 { return 1 }, nil)
	})
	u.clock.RunUntilIdle(100)
	if len(u.sim.ops) != 0 {
		t.Fatal("Reference cluster pooled an op")
	}
}
