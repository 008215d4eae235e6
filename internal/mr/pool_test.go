package mr

import (
	"os"
	"reflect"
	"testing"

	"smapreduce/internal/puma"
)

// poolDiffWorkload is a seeded workload chosen to exercise every
// pooled teardown path: stragglers trigger speculation (killAttempt),
// the mid-run failure aborts maps and shuffling reducers (abortMap,
// abortReduce, the reducer-flow purge) and re-queues committed maps,
// and output replication exercises the write-pipeline flows.
func poolDiffWorkload(t *testing.T, noPool bool) ([]*Job, Stats, []Event) {
	t.Helper()
	cfg := stragglerConfig(true)
	cfg.Seed = 7
	cfg.OutputReplication = 2
	cfg.NoPooling = noPool
	c := MustNewCluster(cfg)
	log := c.EnableEventLog(0)
	c.ScheduleFailure(5, 6.0)
	specs := []JobSpec{
		{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 6},
		{Name: "grep", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 3},
	}
	jobs, err := c.Run(specs...)
	if err != nil {
		t.Fatalf("Run (noPool=%v): %v", noPool, err)
	}
	return jobs, c.Snapshot(), log.Events()
}

// TestPooledVsUnpooledDifferential is the pooling correctness pin: the
// same seeded workload run with recycling on and off must produce
// bit-identical milestones, stats and event logs. Any pooled object
// leaking state across reuse (a stale Userdata, an unreset counter, a
// mis-ordered release) shows up as a divergence here.
func TestPooledVsUnpooledDifferential(t *testing.T) {
	pJobs, pStats, pEvents := poolDiffWorkload(t, false)
	uJobs, uStats, uEvents := poolDiffWorkload(t, true)

	if len(pJobs) != len(uJobs) {
		t.Fatalf("job counts differ: pooled %d, unpooled %d", len(pJobs), len(uJobs))
	}
	for i := range pJobs {
		p, u := pJobs[i], uJobs[i]
		if p.Submitted != u.Submitted || p.Started != u.Started ||
			p.BarrierAt != u.BarrierAt || p.FinishedAt != u.FinishedAt ||
			p.ShuffledMB != u.ShuffledMB ||
			p.SpeculativeLaunched != u.SpeculativeLaunched ||
			p.SpeculativeWins != u.SpeculativeWins {
			t.Fatalf("job %s milestones diverge:\npooled   %+v %+v %+v %+v %v spec %d/%d\nunpooled %+v %+v %+v %+v %v spec %d/%d",
				p.Spec.Name,
				p.Submitted, p.Started, p.BarrierAt, p.FinishedAt, p.ShuffledMB, p.SpeculativeLaunched, p.SpeculativeWins,
				u.Submitted, u.Started, u.BarrierAt, u.FinishedAt, u.ShuffledMB, u.SpeculativeLaunched, u.SpeculativeWins)
		}
	}
	if !reflect.DeepEqual(pStats, uStats) {
		t.Fatalf("final Stats diverge:\npooled   %+v\nunpooled %+v", pStats, uStats)
	}
	if len(pEvents) != len(uEvents) {
		t.Fatalf("event counts differ: pooled %d, unpooled %d", len(pEvents), len(uEvents))
	}
	for i := range pEvents {
		if pEvents[i] != uEvents[i] {
			t.Fatalf("event %d diverges:\npooled   %+v\nunpooled %+v", i, pEvents[i], uEvents[i])
		}
	}
}

// TestHeartbeatZeroAlloc pins the steady-state heartbeat at zero
// allocations: an idle tracker's periodic exchange (rate sampling,
// empty assignment pass, in-place periodic re-arm) must recycle
// everything.
func TestHeartbeatZeroAlloc(t *testing.T) {
	c := MustNewCluster(DefaultConfig())
	tt := c.trackers[0]
	c.clock.SchedulePeriodic(0, c.cfg.HeartbeatPeriod, tt.hbLabel, tt.hbFn)
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
// object is handed back by the next acquisition, and NoPooling
// disables that.
func TestOpPoolRecycles(t *testing.T) {
	if os.Getenv("SMR_NO_POOL") == "1" {
		t.Skip("pooling disabled via SMR_NO_POOL")
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

	u := MustNewCluster(func() Config { cfg := DefaultConfig(); cfg.NoPooling = true; return cfg }())
	u.Mutate(func() {
		first = u.addOp(1, func() float64 { return 1 }, nil)
	})
	u.clock.RunUntilIdle(100)
	if len(u.sim.ops) != 0 {
		t.Fatal("NoPooling cluster pooled an op")
	}
}
