package mr

import (
	"math"
	"testing"

	"smapreduce/internal/puma"
)

func TestLazySlotSemantics(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	tt := c.trackers[0]

	if got := tt.freeMapSlots(); got != cfg.MapSlots {
		t.Fatalf("free map slots = %d, want %d", got, cfg.MapSlots)
	}
	// Simulate running tasks beyond a shrunken target: free slots clamp
	// to zero instead of going negative — the lazy changer in action.
	for i := 0; i < 3; i++ {
		addRunning(&tt.runningMaps, &mapTask{id: i})
	}
	tt.setTargets(1, 1)
	if got := tt.freeMapSlots(); got != 0 {
		t.Fatalf("free map slots = %d, want 0 under lazy shrink", got)
	}
	// As tasks drain, capacity reappears only below the target.
	removeRunning(&tt.runningMaps, tt.runningMaps[0])
	if got := tt.freeMapSlots(); got != 0 {
		t.Fatalf("free map slots = %d, want 0 with 2 running and target 1", got)
	}
}

func TestSetTargetsPanicsOnNonPositive(t *testing.T) {
	c := MustNewCluster(smallConfig())
	tt := c.trackers[0]
	defer func() {
		if recover() == nil {
			t.Fatal("setTargets(0, 1) did not panic")
		}
	}()
	tt.setTargets(0, 1)
}

func TestSetTargetsNoopWhenUnchanged(t *testing.T) {
	c := MustNewCluster(smallConfig())
	tt := c.trackers[0]
	tt.setTargets(tt.mapTarget, tt.reduceTarget)
	if tt.disturbance != nil {
		t.Fatal("no-op target change applied a disturbance")
	}
}

func TestDisturbanceAppliedAndExpires(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	tt := c.trackers[0]
	base := tt.node.PressureLevel()
	c.Mutate(func() { tt.setTargets(5, 2) })
	if tt.node.PressureLevel() <= base {
		t.Fatal("slot change did not perturb the node")
	}
	c.clock.RunUntilIdle(100)
	if math.Abs(tt.node.PressureLevel()-base) > 1e-12 {
		t.Fatalf("disturbance did not expire: %v", tt.node.PressureLevel())
	}
}

func TestDisturbanceExtendsOnRapidChanges(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	tt := c.trackers[0]
	c.Mutate(func() { tt.setTargets(5, 2) })
	c.Mutate(func() { tt.setTargets(6, 2) })
	if tt.disturbance == nil {
		t.Fatal("disturbance missing after back-to-back changes")
	}
	// Exactly one phantom is registered despite two changes.
	if got := tt.node.Len(); got != 1 {
		t.Fatalf("node holds %d activities, want 1", got)
	}
	c.clock.RunUntilIdle(100)
	if tt.disturbance != nil {
		t.Fatal("disturbance not cleared")
	}
}

func TestYARNMemoryMath(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = YARN
	cfg.MapSlots, cfg.ReduceSlots = 3, 2
	c := MustNewCluster(cfg)
	tt := c.trackers[0]

	// Pool = 3·2048 + 2·3072 = 12288 MB.
	if got := tt.freeMemMB(); got != 12288 {
		t.Fatalf("freeMem = %v, want 12288", got)
	}
	// Empty cluster, no reduce demand: maps may fill the whole pool.
	if got := tt.freeMapSlots(); got != 6 {
		t.Fatalf("map burst = %d, want 6", got)
	}
	// Occupy two reduce containers: 12288 − 6144 = 6144 → 3 maps.
	addRunning(&tt.runningReduces, &reduceTask{partition: 0})
	addRunning(&tt.runningReduces, &reduceTask{partition: 1})
	if got := tt.freeMapSlots(); got != 3 {
		t.Fatalf("maps with reduces = %d, want 3", got)
	}
	if got := tt.freeReduceSlots(); got != 2 {
		t.Fatalf("free reduces = %d, want 2 (6144/3072)", got)
	}
}

func TestEagerKillsSurplus(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	cfg.EagerSlotChange = true
	c := MustNewCluster(cfg)
	ctrl := &shrinkController{}
	if err := c.SetController(ctrl); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Run(grepJob(2048))
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("unfinished")
	}
	if !ctrl.shrunk {
		t.Skip("controller never shrank; nothing to verify")
	}
	// The job still completes with every map run exactly to completion
	// (kills requeued, not lost).
	if jobs[0].MapsDone() != jobs[0].NumMaps() {
		t.Fatal("map accounting broken after eager kills")
	}
}

// shrinkController forces a drastic shrink mid-run to exercise the
// eager kill path.
type shrinkController struct {
	ticks  int
	shrunk bool
}

func (s *shrinkController) Tick(c *Cluster) {
	s.ticks++
	if s.ticks == 2 {
		for _, tt := range c.Trackers() {
			c.JobTracker().SetDesiredSlots(tt.ID(), 1, 1)
		}
		s.shrunk = true
	}
}

func TestEagerVsLazyDiffer(t *testing.T) {
	run := func(eager bool) float64 {
		cfg := smallConfig()
		cfg.Policy = Dynamic
		cfg.EagerSlotChange = eager
		c := MustNewCluster(cfg)
		if err := c.SetController(&shrinkController{}); err != nil {
			t.Fatal(err)
		}
		jobs, err := c.Run(grepJob(2048))
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].FinishedAt
	}
	lazy := run(false)
	eager := run(true)
	if lazy == eager {
		t.Fatal("eager and lazy slot changes produced identical timelines")
	}
	// Killing in-flight work must not be faster here: the shrink lands
	// mid-wave and eager pays re-execution.
	if eager < lazy {
		t.Fatalf("eager (%v) beat lazy (%v) on a mid-wave shrink", eager, lazy)
	}
}

func TestTrackerAccessors(t *testing.T) {
	c := MustNewCluster(smallConfig())
	tt := c.trackers[2]
	if tt.ID() != 2 {
		t.Fatal("ID")
	}
	if tt.MapSlots() != smallConfig().MapSlots || tt.ReduceSlots() != smallConfig().ReduceSlots {
		t.Fatal("slot accessors")
	}
	if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 || tt.Failed() {
		t.Fatal("fresh tracker state")
	}
}

func TestSchedulerKindString(t *testing.T) {
	if FIFO.String() != "fifo" || Fair.String() != "fair" {
		t.Fatal("scheduler strings")
	}
	if SchedulerKind(7).String() == "" {
		t.Fatal("unknown kind")
	}
}

func TestFairSchedulerInterleaves(t *testing.T) {
	// Two same-size jobs submitted together: under FIFO the first
	// hogs the slots; under Fair both progress and finish closer
	// together.
	gap := func(kind SchedulerKind) float64 {
		cfg := smallConfig()
		cfg.Scheduler = kind
		c := MustNewCluster(cfg)
		specs := []JobSpec{
			{Name: "a", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, SubmitAt: 0},
			{Name: "b", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, SubmitAt: 0.5},
		}
		jobs, err := c.Run(specs...)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(jobs[1].FinishedAt - jobs[0].FinishedAt)
	}
	fifoGap := gap(FIFO)
	fairGap := gap(Fair)
	if fairGap >= fifoGap {
		t.Fatalf("fair gap (%v) not below FIFO gap (%v)", fairGap, fifoGap)
	}
}

func TestPrioritySchedulerOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduler = Priority
	c := MustNewCluster(cfg)
	lowSpec := JobSpec{Name: "low", Profile: puma.MustGet("grep"), InputMB: 4 * 128, Reduces: 2, Priority: 1}
	highSpec := JobSpec{Name: "high", Profile: puma.MustGet("grep"), InputMB: 4 * 128, Reduces: 2, Priority: 5}
	fileLow, _ := c.fs.Create("input/low", lowSpec.InputMB)
	fileHigh, _ := c.fs.Create("input/high", highSpec.InputMB)
	low := newJob(0, lowSpec, fileLow, c.cfg.NodeSpec.Beta, c.cfg.Workers)
	high := newJob(1, highSpec, fileHigh, c.cfg.NodeSpec.Beta, c.cfg.Workers)
	c.Mutate(func() {
		c.jt.admit(low)
		c.jt.admit(high)
	})
	// Despite low being admitted first, the high-priority job's maps
	// are picked first.
	tt := c.trackers[0]
	for i := 0; i < 4; i++ {
		m := c.jt.nextMap(tt)
		if m.job != high {
			t.Fatalf("pick %d from %s, want high-priority job", i, m.job.Spec.Name)
		}
		m.state = TaskRunning
	}
	if m := c.jt.nextMap(tt); m == nil || m.job != low {
		t.Fatal("low-priority job starved even after high drained")
	}
}

func TestPrioritySchedulerEndToEnd(t *testing.T) {
	run := func(kind SchedulerKind) (highFinish, lowFinish float64) {
		cfg := smallConfig()
		cfg.Scheduler = kind
		c := MustNewCluster(cfg)
		specs := []JobSpec{
			{Name: "low", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, Priority: 0},
			{Name: "high", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, Priority: 9, SubmitAt: 1},
		}
		jobs, err := c.Run(specs...)
		if err != nil {
			t.Fatal(err)
		}
		return jobs[1].FinishedAt, jobs[0].FinishedAt
	}
	fifoHigh, _ := run(FIFO)
	prioHigh, prioLow := run(Priority)
	// Priority must pull the late-submitted high-priority job forward.
	if prioHigh >= fifoHigh {
		t.Fatalf("priority scheduling did not help the high job: %v vs FIFO %v", prioHigh, fifoHigh)
	}
	if prioHigh >= prioLow {
		t.Fatal("high-priority job finished after the low one")
	}
}

func TestTransientSlowdownAndSpeculation(t *testing.T) {
	// A transient slow node (a quarter of its CPU and disk service
	// rates) straggles mid-run; with speculation enabled the job
	// recovers most of the loss.
	run := func(slow, speculate bool) float64 {
		cfg := DefaultConfig()
		cfg.Workers = 8
		cfg.Net.Nodes = 8
		cfg.Speculation = speculate
		cfg.SpeculationMinRuntime = 3
		c := MustNewCluster(cfg)
		if slow {
			c.ScheduleNodeDegrade(3, 5, 60, 0.25, 0.25)
		}
		jobs, err := c.Run(JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 8192, Reduces: 8})
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].FinishedAt
	}
	clean := run(false, false)
	degraded := run(true, false)
	rescued := run(true, true)
	if degraded <= clean {
		t.Fatalf("slow node had no effect: %v vs %v", degraded, clean)
	}
	if rescued >= degraded {
		t.Fatalf("speculation did not rescue the transient straggler: %v vs %v", rescued, degraded)
	}
}
