package mr

import (
	"math"
	"testing"

	"smapreduce/internal/puma"
)

// smallConfig shrinks the cluster so unit tests run fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Net.Nodes = 4
	return cfg
}

func runOne(t *testing.T, cfg Config, spec JobSpec) *Job {
	t.Helper()
	c := MustNewCluster(cfg)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return jobs[0]
}

func grepJob(inputMB float64) JobSpec {
	return JobSpec{Name: "grep", Profile: puma.MustGet("grep"), InputMB: inputMB, Reduces: 8}
}

func terasortJob(inputMB float64) JobSpec {
	return JobSpec{Name: "terasort", Profile: puma.MustGet("terasort"), InputMB: inputMB, Reduces: 8}
}

func TestConfigValidateDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.MapSlots = 0 },
		func(c *Config) { c.ReduceSlots = 0 },
		func(c *Config) { c.MaxMapSlots = 1 },
		func(c *Config) { c.MaxReduceSlots = 0 },
		func(c *Config) { c.PerFetchMBps = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := grepJob(100)
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec invalid: %v", err)
	}
	bad := []JobSpec{
		{Name: "", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 0, Reduces: 1},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 0},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, SubmitAt: -1},
		{Name: "x", Profile: puma.Profile{}, InputMB: 1, Reduces: 1},
		// Non-finite sizes and times: +Inf input used to pass and then
		// loop forever in DFS staging.
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: math.Inf(1), Reduces: 1},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: math.NaN(), Reduces: 1},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, SubmitAt: math.Inf(1)},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, SubmitAt: math.NaN()},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, SLOSeconds: math.Inf(1)},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, SLOSeconds: math.NaN()},
		{Name: "x", Profile: puma.MustGet("grep"), InputMB: 1, Reduces: 1, PartitionSkew: math.NaN()},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d passed", i)
		}
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	j := runOne(t, smallConfig(), grepJob(1024))
	if !j.Finished() {
		t.Fatal("job did not finish")
	}
	if j.MapsDone() != j.NumMaps() || j.ReducesDone() != j.NumReduces() {
		t.Fatalf("task counts: maps %d/%d reduces %d/%d",
			j.MapsDone(), j.NumMaps(), j.ReducesDone(), j.NumReduces())
	}
	if j.NumMaps() != 8 { // 1024 MB / 128 MB blocks
		t.Fatalf("maps = %d, want 8", j.NumMaps())
	}
}

func TestMilestonesOrdered(t *testing.T) {
	j := runOne(t, smallConfig(), terasortJob(1024))
	if !(j.Submitted <= j.Started && j.Started < j.BarrierAt && j.BarrierAt < j.FinishedAt) {
		t.Fatalf("milestones out of order: sub=%v start=%v barrier=%v fin=%v",
			j.Submitted, j.Started, j.BarrierAt, j.FinishedAt)
	}
	if j.MapTime() <= 0 || j.ReduceTime() <= 0 || j.ExecutionTime() <= 0 {
		t.Fatalf("times: map=%v reduce=%v exec=%v", j.MapTime(), j.ReduceTime(), j.ExecutionTime())
	}
	if math.IsNaN(j.ThroughputMBps()) || j.ThroughputMBps() <= 0 {
		t.Fatalf("throughput = %v", j.ThroughputMBps())
	}
}

func TestShuffledVolumeMatchesProfile(t *testing.T) {
	spec := terasortJob(1024)
	j := runOne(t, smallConfig(), spec)
	want := spec.InputMB * spec.Profile.ShuffleRatio()
	// Jitter perturbs each map's output by ±8%; the sum stays close.
	if j.ShuffledMB < want*0.9 || j.ShuffledMB > want*1.1 {
		t.Fatalf("shuffled %v MB, want ≈%v", j.ShuffledMB, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runOne(t, smallConfig(), terasortJob(512))
	b := runOne(t, smallConfig(), terasortJob(512))
	if a.FinishedAt != b.FinishedAt || a.BarrierAt != b.BarrierAt {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.BarrierAt, a.FinishedAt, b.BarrierAt, b.FinishedAt)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 99
	a := runOne(t, smallConfig(), terasortJob(512))
	b := runOne(t, cfg2, terasortJob(512))
	if a.FinishedAt == b.FinishedAt {
		t.Fatal("different seeds produced identical finish times")
	}
}

// TestProgressCurvesMonotone reads one job's progress through the
// OnProgress hook: the sampled totals (map% + reduce%) never decrease,
// and the last snapshot is the job-finished milestone at 200.
func TestProgressCurvesMonotone(t *testing.T) {
	c := MustNewCluster(smallConfig())
	var snaps []Progress
	c.SetOnProgress(func(p Progress) { snaps = append(snaps, p) })
	if _, err := c.Run(grepJob(2048)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	prev := -1.0
	for _, p := range snaps {
		if p.Milestone != MilestoneSample {
			continue
		}
		total := p.MapPct + p.ReducePct
		if total < prev-1e-6 {
			t.Fatalf("total progress regressed to %v after %v at t=%v", total, prev, p.At)
		}
		prev = total
	}
	if prev < 0 {
		t.Fatal("no sample snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.Milestone != string(EvJobFinished) || last.MapPct+last.ReducePct != 200 {
		t.Fatalf("last snapshot %q at %v%%, want %q at 200", last.Milestone, last.MapPct+last.ReducePct, EvJobFinished)
	}
}

func TestMoreSlotsFinishFasterBelowThrash(t *testing.T) {
	cfg1 := smallConfig()
	cfg1.MapSlots = 1
	cfg3 := smallConfig()
	cfg3.MapSlots = 3
	slow := runOne(t, cfg1, grepJob(2048))
	fast := runOne(t, cfg3, grepJob(2048))
	if fast.MapTime() >= slow.MapTime() {
		t.Fatalf("3 slots (%v) not faster than 1 slot (%v)", fast.MapTime(), slow.MapTime())
	}
}

func TestThrashingSlowsMapHeavyJob(t *testing.T) {
	// Past the calibrated peak (grep ≈ 8), more slots hurt.
	atPeak := smallConfig()
	atPeak.MapSlots = 8
	atPeak.MaxMapSlots = 20
	over := smallConfig()
	over.MapSlots = 16
	over.MaxMapSlots = 20
	good := runOne(t, atPeak, grepJob(2048))
	bad := runOne(t, over, grepJob(2048))
	if bad.MapTime() <= good.MapTime() {
		t.Fatalf("thrashing config (%v) not slower than peak config (%v)", bad.MapTime(), good.MapTime())
	}
}

func TestRunErrors(t *testing.T) {
	c := MustNewCluster(smallConfig())
	if _, err := c.Run(); err == nil {
		t.Fatal("Run with no jobs succeeded")
	}
	if _, err := c.Run(JobSpec{Name: "bad"}); err == nil {
		t.Fatal("Run with invalid spec succeeded")
	}
	if _, err := c.Run(grepJob(256)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(grepJob(256)); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestSetControllerRequiresDynamic(t *testing.T) {
	c := MustNewCluster(smallConfig())
	if err := c.SetController(nopController{}); err == nil {
		t.Fatal("controller attached under HadoopV1 policy")
	}
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c2 := MustNewCluster(cfg)
	if err := c2.SetController(nopController{}); err != nil {
		t.Fatal(err)
	}
}

type nopController struct{}

func (nopController) Tick(*Cluster) {}

func TestPolicyString(t *testing.T) {
	if HadoopV1.String() != "hadoopv1" || YARN.String() != "yarn" || Dynamic.String() != "smapreduce" {
		t.Fatal("Policy strings")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy empty")
	}
	if TaskPending.String() != "pending" || TaskRunning.String() != "running" || TaskDone.String() != "done" {
		t.Fatal("TaskState strings")
	}
	if TaskState(9).String() == "" {
		t.Fatal("unknown state empty")
	}
}

func TestYARNRunsJob(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = YARN
	j := runOne(t, cfg, terasortJob(1024))
	if !j.Finished() {
		t.Fatal("YARN job did not finish")
	}
}

func TestYARNMapBurstBeatsV1OnMapHeavy(t *testing.T) {
	// YARN's fungible containers let maps use reduce-container memory
	// before reducers arrive, so map-heavy jobs finish their map phase
	// faster than under static V1 slots.
	v1 := runOne(t, smallConfig(), grepJob(4096))
	cfgY := smallConfig()
	cfgY.Policy = YARN
	yarn := runOne(t, cfgY, grepJob(4096))
	if yarn.MapTime() >= v1.MapTime() {
		t.Fatalf("YARN map time %v not better than V1 %v", yarn.MapTime(), v1.MapTime())
	}
}

func TestMultipleConcurrentJobs(t *testing.T) {
	c := MustNewCluster(smallConfig())
	specs := []JobSpec{
		{Name: "g1", Profile: puma.MustGet("grep"), InputMB: 512, Reduces: 4, SubmitAt: 0},
		{Name: "g2", Profile: puma.MustGet("grep"), InputMB: 512, Reduces: 4, SubmitAt: 5},
		{Name: "g3", Profile: puma.MustGet("grep"), InputMB: 512, Reduces: 4, SubmitAt: 10},
	}
	jobs, err := c.Run(specs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %s unfinished", j.Spec.Name)
		}
	}
	// FIFO: earlier submissions never finish after strictly later ones
	// by a wide margin; at minimum the first job finishes first.
	if jobs[0].FinishedAt > jobs[2].FinishedAt {
		t.Fatalf("FIFO violated: first %v last %v", jobs[0].FinishedAt, jobs[2].FinishedAt)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	probe := &probeController{}
	if err := c.SetController(probe); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(terasortJob(2048)); err != nil {
		t.Fatal(err)
	}
	if probe.ticks == 0 {
		t.Fatal("controller never ticked")
	}
	for _, s := range probe.snaps {
		if s.RunningMaps < 0 || s.RunningMaps > cfg.Workers*cfg.MaxMapSlots {
			t.Fatalf("implausible running maps %d", s.RunningMaps)
		}
		if s.DoneMaps > s.TotalMaps {
			t.Fatalf("done exceeds total: %+v", s)
		}
		if s.ShuffleMBps < 0 || s.PotentialShuffleMBps < 0 {
			t.Fatalf("negative rates: %+v", s)
		}
	}
}

type probeController struct {
	ticks int
	snaps []Stats
}

func (p *probeController) Tick(c *Cluster) {
	p.ticks++
	p.snaps = append(p.snaps, c.Snapshot())
}

func TestDesiredSlotsApplyOnHeartbeat(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	ctrl := &raiseOnceController{target: 6}
	if err := c.SetController(ctrl); err != nil {
		t.Fatal(err)
	}
	j := runOne2(t, c, grepJob(4096))
	if !j.Finished() {
		t.Fatal("unfinished")
	}
	if !ctrl.sawApplied {
		t.Fatal("slot targets never reached the trackers")
	}
}

type raiseOnceController struct {
	target     int
	raised     bool
	sawApplied bool
}

func (r *raiseOnceController) Tick(c *Cluster) {
	if !r.raised {
		for _, tt := range c.Trackers() {
			c.JobTracker().SetDesiredSlots(tt.ID(), r.target, 2)
		}
		r.raised = true
		return
	}
	for _, tt := range c.Trackers() {
		if tt.MapSlots() == r.target {
			r.sawApplied = true
		}
	}
}

func runOne2(t *testing.T, c *Cluster, spec JobSpec) *Job {
	t.Helper()
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return jobs[0]
}

func TestSetDesiredSlotsClampsAndPanics(t *testing.T) {
	c := MustNewCluster(smallConfig())
	jt := c.JobTracker()
	jt.SetDesiredSlots(0, 100, 100)
	m, r := jt.desiredSlots(0)
	if m != c.cfg.MaxMapSlots || r != c.cfg.MaxReduceSlots {
		t.Fatalf("clamp failed: %d/%d", m, r)
	}
	for _, f := range []func(){
		func() { jt.SetDesiredSlots(-1, 2, 2) },
		func() { jt.SetDesiredSlots(0, 0, 2) },
		func() { jt.SetDesiredSlots(0, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad SetDesiredSlots did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMapHeavyVsReduceHeavyShape(t *testing.T) {
	// Reduce-heavy jobs spend proportionally longer after the barrier.
	g := runOne(t, smallConfig(), grepJob(2048))
	ts := runOne(t, smallConfig(), terasortJob(2048))
	gRatio := g.ReduceTime() / g.ExecutionTime()
	tsRatio := ts.ReduceTime() / ts.ExecutionTime()
	if tsRatio <= gRatio {
		t.Fatalf("terasort tail ratio %v not larger than grep %v", tsRatio, gRatio)
	}
}

func TestPartitionWeights(t *testing.T) {
	uniform := partitionWeights(4, 0)
	for _, w := range uniform {
		if math.Abs(w-0.25) > 1e-12 {
			t.Fatalf("uniform weights = %v", uniform)
		}
	}
	skewed := partitionWeights(4, 1)
	sum := 0.0
	for i := 1; i < len(skewed); i++ {
		if skewed[i] > skewed[i-1] {
			t.Fatalf("skewed weights not decreasing: %v", skewed)
		}
	}
	for _, w := range skewed {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %v", sum)
	}
	if skewed[0] <= uniform[0] {
		t.Fatal("skew did not concentrate the first partition")
	}
}

func TestSkewSlowsReduceTail(t *testing.T) {
	base := terasortJob(2048)
	even := runOne(t, smallConfig(), base)
	skewed := base
	skewed.PartitionSkew = 1.0
	hot := runOne(t, smallConfig(), skewed)
	// Total shuffle volume is identical; the hot reducer serialises the
	// tail, so the skewed run must take longer end to end.
	if hot.FinishedAt <= even.FinishedAt {
		t.Fatalf("skewed run (%v) not slower than uniform (%v)", hot.FinishedAt, even.FinishedAt)
	}
	if math.Abs(hot.ShuffledMB-even.ShuffledMB) > even.ShuffledMB*0.05 {
		t.Fatalf("skew changed total shuffle volume: %v vs %v", hot.ShuffledMB, even.ShuffledMB)
	}
}

func TestSkewValidation(t *testing.T) {
	s := grepJob(100)
	s.PartitionSkew = -1
	if s.Validate() == nil {
		t.Fatal("negative skew accepted")
	}
	s.PartitionSkew = 9
	if s.Validate() == nil {
		t.Fatal("huge skew accepted")
	}
}

func TestSkewSurvivesFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 6
	cfg.Net.Nodes = 6
	c := MustNewCluster(cfg)
	c.ScheduleFailure(1, 15)
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 6, PartitionSkew: 0.8}
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("skewed job did not survive failure")
	}
}

func TestYARNWithCompressionAndFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 6
	cfg.Net.Nodes = 6
	cfg.Policy = YARN
	c := MustNewCluster(cfg)
	c.ScheduleFailure(4, 15)
	jobs, err := c.Run(JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("YARN job did not survive failure")
	}
}

func TestYARNMultiJobFair(t *testing.T) {
	// YARN policy with the Fair scheduler ordering jobs: still correct.
	cfg := smallConfig()
	cfg.Policy = YARN
	cfg.Scheduler = Fair
	c := MustNewCluster(cfg)
	specs := []JobSpec{
		{Name: "a", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4},
		{Name: "b", Profile: puma.MustGet("wordcount"), InputMB: 1024, Reduces: 4, SubmitAt: 1},
	}
	jobs, err := c.Run(specs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %s unfinished", j.Spec.Name)
		}
	}
}

func TestYARNSpeculation(t *testing.T) {
	cfg := stragglerConfig(true)
	cfg.Policy = YARN
	c := MustNewCluster(cfg)
	jobs, err := c.Run(JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 8192, Reduces: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() || jobs[0].SpeculativeLaunched == 0 {
		t.Fatalf("YARN speculation inert: launched=%d", jobs[0].SpeculativeLaunched)
	}
}
