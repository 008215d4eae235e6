package mr

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"smapreduce/internal/puma"
	"smapreduce/internal/resource"
)

// TestQuickRandomWorkloadsComplete drives the whole runtime with
// randomised cluster shapes, policies and job mixes, asserting the
// invariants that must hold for every run:
//
//   - every job finishes with all tasks done;
//   - milestones are ordered (submit ≤ start < barrier ≤ finish);
//   - the shuffled volume matches the profile's expectation;
//   - no tracker is left holding tasks.
func TestQuickRandomWorkloadsComplete(t *testing.T) {
	benchNames := puma.Names()
	f := func(seed uint64, workersRaw, policyRaw, jobsRaw uint8, benchPick []uint8) bool {
		cfg := DefaultConfig()
		cfg.Workers = int(workersRaw%6) + 3 // 3..8
		cfg.Net.Nodes = cfg.Workers
		cfg.Seed = seed + 1
		switch policyRaw % 3 {
		case 0:
			cfg.Policy = HadoopV1
		case 1:
			cfg.Policy = YARN
		case 2:
			cfg.Policy = HadoopV1
			cfg.Scheduler = Fair
		}
		nJobs := int(jobsRaw%3) + 1
		specs := make([]JobSpec, 0, nJobs)
		for i := 0; i < nJobs; i++ {
			bench := benchNames[0]
			if len(benchPick) > 0 {
				bench = benchNames[int(benchPick[i%len(benchPick)])%len(benchNames)]
			}
			specs = append(specs, JobSpec{
				Name:     fmt.Sprintf("%s-%d", bench, i),
				Profile:  puma.MustGet(bench),
				InputMB:  float64(256 + 128*i),
				Reduces:  int(jobsRaw%5) + 2,
				SubmitAt: float64(i) * 2,
			})
		}
		c := MustNewCluster(cfg)
		jobs, err := c.Run(specs...)
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		for _, j := range jobs {
			if !j.Finished() || j.MapsDone() != j.NumMaps() || j.ReducesDone() != j.NumReduces() {
				t.Logf("job %s incomplete", j.Spec.Name)
				return false
			}
			if !(j.Submitted <= j.Started && j.Started < j.BarrierAt && j.BarrierAt <= j.FinishedAt) {
				t.Logf("job %s milestones disordered: %v %v %v %v",
					j.Spec.Name, j.Submitted, j.Started, j.BarrierAt, j.FinishedAt)
				return false
			}
			want := j.Spec.InputMB * j.Spec.Profile.ShuffleRatio()
			if want > 1 && (j.ShuffledMB < want*0.8 || j.ShuffledMB > want*1.2) {
				t.Logf("job %s shuffled %v, want ≈%v", j.Spec.Name, j.ShuffledMB, want)
				return false
			}
		}
		for _, tt := range c.Trackers() {
			if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
				t.Logf("tracker %d still busy", tt.ID())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDynamicPolicyCompletes stresses the Dynamic policy with a
// slot controller under random seeds.
func TestQuickDynamicPolicyCompletes(t *testing.T) {
	f := func(seed uint64, benchRaw uint8) bool {
		names := puma.Names()
		bench := names[int(benchRaw)%len(names)]
		cfg := DefaultConfig()
		cfg.Workers = 4
		cfg.Net.Nodes = 4
		cfg.Policy = Dynamic
		cfg.Seed = seed + 1
		c := MustNewCluster(cfg)
		if err := c.SetController(&jitterController{}); err != nil {
			return false
		}
		jobs, err := c.Run(JobSpec{
			Name: bench, Profile: puma.MustGet(bench), InputMB: 1024, Reduces: 4,
		})
		if err != nil {
			t.Logf("dynamic run failed: %v", err)
			return false
		}
		return jobs[0].Finished()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// jitterController wiggles slot targets adversarially every tick.
type jitterController struct{ n int }

func (j *jitterController) Interval() float64 { return 3 }
func (j *jitterController) Tick(c *Cluster) {
	j.n++
	maps := 1 + (j.n*3)%6
	reduces := 1 + j.n%3
	for _, tt := range c.Trackers() {
		c.JobTracker().SetDesiredSlots(tt.ID(), maps, reduces)
	}
}

// TestQuickFailureRecoveryInvariant injects a failure at a random time
// on a random tracker and asserts completion and conservation.
func TestQuickFailureRecoveryInvariant(t *testing.T) {
	f := func(seed uint64, whenRaw uint16, whoRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Workers = 6
		cfg.Net.Nodes = 6
		cfg.Seed = seed + 1
		c := MustNewCluster(cfg)
		c.ScheduleFailure(int(whoRaw)%6, float64(whenRaw%120)+1)
		jobs, err := c.Run(JobSpec{
			Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 1536, Reduces: 6,
		})
		if err != nil {
			t.Logf("failure run: %v", err)
			return false
		}
		j := jobs[0]
		if !j.Finished() || j.MapsDone() != j.NumMaps() {
			return false
		}
		want := j.Spec.InputMB * j.Spec.Profile.ShuffleRatio()
		return math.Abs(j.ShuffledMB-want) < want*0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpeculationInvariant runs speculative execution under random
// straggler placements and asserts logical-task conservation.
func TestQuickSpeculationInvariant(t *testing.T) {
	f := func(seed uint64, slowMask uint8) bool {
		cfg := DefaultConfig()
		cfg.Workers = 6
		cfg.Net.Nodes = 6
		cfg.Seed = seed + 1
		cfg.Speculation = true
		cfg.SpeculationMinRuntime = 2
		list := make([]resource.Spec, cfg.Workers)
		for i := range list {
			list[i] = resource.DefaultSpec()
			if slowMask&(1<<uint(i%8)) != 0 && i > 0 {
				list[i].CoreSpeed = 0.5
			}
		}
		cfg.NodeSpecs = list
		c := MustNewCluster(cfg)
		jobs, err := c.Run(JobSpec{
			Name: "g", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4,
		})
		if err != nil {
			t.Logf("speculative run: %v", err)
			return false
		}
		j := jobs[0]
		if !j.Finished() || j.MapsDone() != j.NumMaps() {
			return false
		}
		return j.SpeculativeWins <= j.SpeculativeLaunched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKitchenSink turns every runtime feature on at once —
// speculation, partition skew, fair scheduling, a heterogeneous
// cluster, a mid-run failure and a transient slow node — and asserts
// the invariants still hold.
func TestQuickKitchenSink(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.Workers = 6
		cfg.Net.Nodes = 6
		cfg.Seed = seed + 1
		cfg.Scheduler = Fair
		cfg.Speculation = true
		cfg.SpeculationMinRuntime = 3
		specs := make([]resource.Spec, cfg.Workers)
		for i := range specs {
			specs[i] = resource.DefaultSpec()
			if i == 5 {
				specs[i].CoreSpeed = 0.6
				specs[i].ContentionScale = 1.5
			}
		}
		cfg.NodeSpecs = specs

		c := MustNewCluster(cfg)
		c.ScheduleFailure(1, 25)
		c.ScheduleNodeDegrade(2, 10, 30, 0.5, 0.5)
		log := c.EnableEventLog(0)
		jobs, err := c.Run(
			JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 1536, Reduces: 6, PartitionSkew: 0.5},
			JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 5},
		)
		if err != nil {
			t.Logf("kitchen sink run: %v", err)
			return false
		}
		for _, j := range jobs {
			if !j.Finished() || j.MapsDone() != j.NumMaps() || j.ReducesDone() != j.NumReduces() {
				t.Logf("job %s incomplete", j.Spec.Name)
				return false
			}
		}
		if len(log.Filter(EvTrackerDown)) != 1 {
			return false
		}
		for _, tt := range c.Trackers() {
			if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
