package core

import (
	"math"
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/resource"
)

// smallCluster returns a 4-worker Dynamic-policy config for fast tests.
func smallCluster() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Workers = 4
	cfg.Net.Nodes = 4
	cfg.Policy = mr.Dynamic
	return cfg
}

func job(bench string, inputMB float64, reduces int) mr.JobSpec {
	return mr.JobSpec{Name: bench, Profile: puma.MustGet(bench), InputMB: inputMB, Reduces: reduces}
}

// runManaged runs one job on a small cluster under a fresh slot manager
// and returns the finished job plus the manager.
func runManaged(t *testing.T, smCfg SlotManagerConfig, spec mr.JobSpec) (*mr.Job, *SlotManager) {
	t.Helper()
	c := mr.MustNewCluster(smallCluster())
	m, err := NewSlotManager(smCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetController(m); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0], m
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultSlotManagerConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []func(*SlotManagerConfig){
		func(c *SlotManagerConfig) { c.SlowStartFraction = 2 },
		func(c *SlotManagerConfig) { c.LowerBound = -1 },
		func(c *SlotManagerConfig) { c.UpperBound = c.LowerBound / 2 },
		func(c *SlotManagerConfig) { c.StabilizeDelay = -1 },
		func(c *SlotManagerConfig) { c.RateWindow = -1 },
		func(c *SlotManagerConfig) { c.SuspectConfirmations = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultSlotManagerConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestZeroConfigGetsPaperDefaults(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	d := DefaultSlotManagerConfig()
	if m.k.cfg.SlowStartFraction != d.SlowStartFraction ||
		m.k.cfg.UpperBound != d.UpperBound || m.k.cfg.RateWindow != d.RateWindow {
		t.Fatalf("zero config not defaulted: %+v", m.k.cfg)
	}
	// The zero value must be the full algorithm, not an ablation.
	if m.k.cfg.DisableThrashDetection || m.k.cfg.DisableSlowStart || m.k.cfg.DisableTailBoost {
		t.Fatal("zero config disabled a feature")
	}
}

func TestNewSlotManagerRejectsInvalid(t *testing.T) {
	if _, err := NewSlotManager(SlotManagerConfig{RateWindow: -5}); err == nil {
		t.Fatal("invalid config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSlotManager did not panic")
		}
	}()
	MustNewSlotManager(SlotManagerConfig{RateWindow: -5})
}

func TestMapHeavyJobGrowsMapSlots(t *testing.T) {
	j, m := runManaged(t, SlotManagerConfig{}, job("grep", 16*1024, 8))
	if !j.Finished() {
		t.Fatal("unfinished")
	}
	grew := false
	for _, d := range m.Decisions() {
		if d.MapTarget > smallCluster().MapSlots && strings.Contains(d.Reason, "map-heavy") {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("map-heavy job never grew map slots: %+v", m.Decisions())
	}
}

func TestManagedBeatsStaticOnMapHeavy(t *testing.T) {
	static := mr.MustNewCluster(func() mr.Config {
		c := smallCluster()
		c.Policy = mr.HadoopV1
		return c
	}())
	sj, err := static.Run(job("grep", 16*1024, 8))
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := runManaged(t, SlotManagerConfig{}, job("grep", 16*1024, 8))
	if dj.ExecutionTime() >= sj[0].ExecutionTime() {
		t.Fatalf("managed (%v) not faster than static (%v)", dj.ExecutionTime(), sj[0].ExecutionTime())
	}
}

func TestThrashingDetectionCapsGrowth(t *testing.T) {
	// grep's per-node peak is 9; the manager must not push past it by
	// more than the detection lag (one step).
	_, m := runManaged(t, SlotManagerConfig{}, job("grep", 32*1024, 8))
	maxTarget := 0
	for _, d := range m.Decisions() {
		if d.MapTarget > maxTarget {
			maxTarget = d.MapTarget
		}
	}
	if maxTarget > int(puma.MustGet("grep").MapPeakSlots)+1 {
		t.Fatalf("map target reached %d, beyond grep's thrashing point", maxTarget)
	}
}

func TestThrashingRollbackLogged(t *testing.T) {
	// With a ceiling-free run long enough to overshoot, detection must
	// roll the target back and log the confirmation.
	_, m := runManaged(t, SlotManagerConfig{StabilizeDelay: 6}, job("histogram-movies", 48*1024, 8))
	confirmed := false
	for _, d := range m.Decisions() {
		if strings.Contains(d.Reason, "thrashing confirmed") {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatalf("thrashing never confirmed; decisions %v", m.Decisions())
	}
	if m.k.ceiling == 0 {
		t.Fatal("confirmation did not set a ceiling")
	}
}

func TestDisableThrashDetectionOvershoots(t *testing.T) {
	withDet, mDet := runManaged(t, SlotManagerConfig{}, job("histogram-movies", 32*1024, 8))
	without, mNo := runManaged(t, SlotManagerConfig{DisableThrashDetection: true}, job("histogram-movies", 32*1024, 8))
	maxT := func(m *SlotManager) int {
		mx := 0
		for _, d := range m.Decisions() {
			if d.MapTarget > mx {
				mx = d.MapTarget
			}
		}
		return mx
	}
	if maxT(mNo) <= maxT(mDet) {
		t.Fatalf("no-detection run did not overshoot: %d vs %d", maxT(mNo), maxT(mDet))
	}
	// Fig. 7's headline: without detection the job gets slower.
	if without.MapTime() <= withDet.MapTime() {
		t.Fatalf("no-detection map time %v not worse than %v", without.MapTime(), withDet.MapTime())
	}
}

func TestSlowStartDelaysFirstDecision(t *testing.T) {
	_, m := runManaged(t, SlotManagerConfig{}, job("grep", 16*1024, 8))
	if len(m.Decisions()) == 0 {
		t.Fatal("no decisions at all")
	}
	first := m.Decisions()[0].At
	_, mNo := runManaged(t, SlotManagerConfig{DisableSlowStart: true}, job("grep", 16*1024, 8))
	if len(mNo.Decisions()) == 0 {
		t.Fatal("no decisions without slow start")
	}
	firstNo := mNo.Decisions()[0].At
	if firstNo > first {
		t.Fatalf("slow-start run decided earlier (%v) than non-slow-start (%v)", first, firstNo)
	}
}

func TestTailStretchReleasesMapSlots(t *testing.T) {
	_, m := runManaged(t, SlotManagerConfig{}, job("terasort", 8*1024, 8))
	sawTail := false
	for _, d := range m.Decisions() {
		if strings.Contains(d.Reason, "tail") {
			sawTail = true
			if d.MapTarget > smallCluster().MaxMapSlots {
				t.Fatalf("tail grew map slots: %+v", d)
			}
		}
	}
	if !sawTail {
		t.Fatal("no tail-stretch decision observed")
	}
}

func TestTailBoostOnlyForSmallShuffle(t *testing.T) {
	// grep shuffles almost nothing: the tail may boost reduce slots.
	_, mSmall := runManaged(t, SlotManagerConfig{}, job("grep", 16*1024, 8))
	boosted := false
	for _, d := range mSmall.Decisions() {
		if strings.Contains(d.Reason, "boosting reduce") {
			boosted = true
		}
	}
	if !boosted {
		t.Fatal("small-shuffle job never boosted reduce slots in the tail")
	}
	// terasort shuffles everything: the guard must hold reduce slots.
	_, mBig := runManaged(t, SlotManagerConfig{}, job("terasort", 8*1024, 8))
	for _, d := range mBig.Decisions() {
		if strings.Contains(d.Reason, "boosting reduce") {
			t.Fatalf("large-shuffle job boosted reduce slots: %+v", d)
		}
	}
}

func TestDisableTailBoost(t *testing.T) {
	_, m := runManaged(t, SlotManagerConfig{DisableTailBoost: true}, job("grep", 16*1024, 8))
	for _, d := range m.Decisions() {
		if strings.Contains(d.Reason, "boosting reduce") {
			t.Fatalf("tail boost fired while disabled: %+v", d)
		}
	}
}

func TestBalanceFactorEdgeCases(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	// A job with no reducers at all is trivially map-heavy → +Inf.
	if f := m.k.balanceFactorFrom(mr.Stats{FrontTotalReduces: 0}, 100); !math.IsInf(f, 1) {
		t.Fatalf("f = %v, want +Inf", f)
	}
	// No output rate yet → NaN (no signal, hold position).
	if f := m.k.balanceFactorFrom(mr.Stats{FrontTotalReduces: 30}, 0); !math.IsNaN(f) {
		t.Fatalf("f = %v, want NaN", f)
	}
	// Front job's reducers not launched yet → NaN (no signal).
	if f := m.k.balanceFactorFrom(mr.Stats{FrontTotalReduces: 30, FrontRunningReduces: 0}, 100); !math.IsNaN(f) {
		t.Fatalf("f = %v, want NaN", f)
	}
	// Normal case: Rm = (15/30)·100 = 50, Rs = 200 → f = 4.
	s := mr.Stats{FrontTotalReduces: 30, FrontRunningReduces: 15, PotentialShuffleMBps: 200}
	if f := m.k.balanceFactorFrom(s, 100); math.Abs(f-4) > 1e-9 {
		t.Fatalf("f = %v, want 4", f)
	}
	// Measured shuffle above the potential estimate wins.
	s.ShuffleMBps = 300
	if f := m.k.balanceFactorFrom(s, 100); math.Abs(f-6) > 1e-9 {
		t.Fatalf("f = %v, want 6", f)
	}
}

func TestWindowRates(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{RateWindow: 10})
	r1, _, _ := m.k.windowRates(mr.Stats{Now: 0, MapInputProcessedMB: 0})
	if r1 != 0 {
		t.Fatalf("first sample rate = %v, want 0", r1)
	}
	r2, _, _ := m.k.windowRates(mr.Stats{Now: 5, MapInputProcessedMB: 50})
	if math.Abs(r2-10) > 1e-9 {
		t.Fatalf("rate = %v, want 10", r2)
	}
	// Old samples roll out of the window.
	for i := 1; i <= 10; i++ {
		m.k.windowRates(mr.Stats{Now: 5 + float64(i)*5, MapInputProcessedMB: 50 + float64(i)*100})
	}
	r, _, _ := m.k.windowRates(mr.Stats{Now: 60, MapInputProcessedMB: 1150})
	if math.Abs(r-20) > 1.0 {
		t.Fatalf("windowed rate = %v, want ≈20", r)
	}
	if len(m.k.samples) > 5 {
		t.Fatalf("window retained %d samples, expected pruning", len(m.k.samples))
	}
}

func TestDecisionsRecordTargets(t *testing.T) {
	_, m := runManaged(t, SlotManagerConfig{}, job("grep", 16*1024, 8))
	for _, d := range m.Decisions() {
		if d.MapTarget < 1 || d.ReduceTarget < 1 {
			t.Fatalf("decision with non-positive target: %+v", d)
		}
		if d.At < 0 {
			t.Fatalf("decision with negative time: %+v", d)
		}
		if d.Reason == "" {
			t.Fatalf("decision without reason: %+v", d)
		}
	}
	if m.k.MapTarget() < 1 || m.k.ReduceTarget() < 1 {
		t.Fatal("manager targets invalid after run")
	}
}

func TestMultiJobResetsLearning(t *testing.T) {
	c := mr.MustNewCluster(smallCluster())
	m := MustNewSlotManager(SlotManagerConfig{})
	if err := c.SetController(m); err != nil {
		t.Fatal(err)
	}
	specs := []mr.JobSpec{
		{Name: "g1", Profile: puma.MustGet("grep"), InputMB: 8 * 1024, Reduces: 4, SubmitAt: 0},
		{Name: "t2", Profile: puma.MustGet("terasort"), InputMB: 4 * 1024, Reduces: 4, SubmitAt: 5},
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
	// The manager must have tracked the head job transition.
	if m.k.headJob != jobs[1].ID {
		t.Fatalf("headJob = %d, want %d", m.k.headJob, jobs[1].ID)
	}
}

func TestEngineStrings(t *testing.T) {
	if EngineHadoopV1.String() != "HadoopV1" || EngineYARN.String() != "YARN" || EngineSMapReduce.String() != "SMapReduce" {
		t.Fatal("engine strings")
	}
	if Engine(9).String() == "" {
		t.Fatal("unknown engine empty")
	}
	if len(Engines()) != 3 {
		t.Fatal("Engines() must list all three systems")
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if _, err := Run(Engine(42), Options{}, job("grep", 1024, 4)); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunBaselinesHaveNoDecisions(t *testing.T) {
	cfg := smallCluster()
	cfg.Policy = mr.HadoopV1 // overridden by engine anyway
	for _, e := range []Engine{EngineHadoopV1, EngineYARN} {
		res, err := Run(e, Options{Cluster: cfg}, job("grep", 2048, 4))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decisions) != 0 {
			t.Fatalf("%v produced slot decisions", e)
		}
	}
}

func TestRunSMapReduceOnDefaults(t *testing.T) {
	res, err := Run(EngineSMapReduce, Options{Cluster: smallCluster()}, job("grep", 4096, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || !res.Jobs[0].Finished() {
		t.Fatal("run incomplete")
	}
}

func TestResultAggregates(t *testing.T) {
	cfg := smallCluster()
	specs := []mr.JobSpec{
		{Name: "a", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 0},
		{Name: "b", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 5},
	}
	res, err := Run(EngineSMapReduce, Options{Cluster: cfg}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanExecutionTime() <= 0 {
		t.Fatalf("mean exec = %v", res.MeanExecutionTime())
	}
	last := res.LastFinish()
	for _, j := range res.Jobs {
		if j.FinishedAt > last {
			t.Fatalf("LastFinish %v before job end %v", last, j.FinishedAt)
		}
	}
}

func TestRunRejectsBadSlotManagerConfig(t *testing.T) {
	_, err := Run(EngineSMapReduce, Options{SlotManager: SlotManagerConfig{RateWindow: -1}}, job("grep", 1024, 4))
	if err == nil {
		t.Fatal("bad slot manager config accepted")
	}
}

func TestScaleForNode(t *testing.T) {
	cfg := smallCluster()
	specs := make([]resource.Spec, cfg.Workers)
	for i := range specs {
		specs[i] = resource.DefaultSpec()
	}
	specs[0].Cores = 32 // 2x the mean-ish
	specs[3].Cores = 8  // 0.5x
	cfg.NodeSpecs = specs
	c := mr.MustNewCluster(cfg)
	m := MustNewSlotManager(SlotManagerConfig{PerNodeScaling: true})

	// Mean capacity = (32+16+16+8)/4 = 18.
	maps, reduces := m.scaleForNode(c, 0, 6, 2)
	if maps != 11 || reduces != 4 { // 6*32/18=10.67→11, 2*32/18=3.56→4
		t.Fatalf("big node scaled to %d/%d", maps, reduces)
	}
	maps, reduces = m.scaleForNode(c, 3, 6, 2)
	if maps != 3 || reduces != 1 { // 6*8/18=2.67→3, 2*8/18=0.89→1
		t.Fatalf("small node scaled to %d/%d", maps, reduces)
	}
	// Scaling never drops below one slot.
	maps, reduces = m.scaleForNode(c, 3, 1, 1)
	if maps < 1 || reduces < 1 {
		t.Fatalf("scaled below 1: %d/%d", maps, reduces)
	}
}

func TestPerNodeScalingAppliesDistinctTargets(t *testing.T) {
	cfg := smallCluster()
	specs := make([]resource.Spec, cfg.Workers)
	for i := range specs {
		specs[i] = resource.DefaultSpec()
		if i >= 2 {
			specs[i].Cores = 8
			specs[i].ContentionScale = 2
		}
	}
	cfg.NodeSpecs = specs
	c := mr.MustNewCluster(cfg)
	m := MustNewSlotManager(SlotManagerConfig{PerNodeScaling: true})
	if err := c.SetController(m); err != nil {
		t.Fatal(err)
	}
	// Push one pair of uniform targets and read the per-tracker slots at
	// the first sample (t=2 s): every tracker has beaten and applied
	// its target, and the manager's first tick (t=5 s) is still ahead.
	m.push(c, 6, 2)
	fastM, slowM := -1, -1
	c.SetOnProgress(func(p mr.Progress) {
		if p.Milestone == mr.MilestoneSample && fastM < 0 {
			fastM, slowM = c.Trackers()[0].MapSlots(), c.Trackers()[2].MapSlots()
		}
	})
	// The cluster still completes a job under distinct targets.
	jobs, err := c.Run(job("grep", 8*1024, 8))
	if err != nil {
		t.Fatal(err)
	}
	if fastM <= slowM {
		t.Fatalf("fast node target (%d) not above slow node (%d)", fastM, slowM)
	}
	if !jobs[0].Finished() {
		t.Fatal("unfinished")
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{At: 12.5, MapTarget: 4, ReduceTarget: 2, Factor: 1.25, Reason: "x"}
	s := d.String()
	for _, want := range []string{"12.5", "maps=4", "reduces=2", "f=1.25", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("decision render %q missing %q", s, want)
		}
	}
	inf := Decision{Factor: math.Inf(1)}
	if !strings.Contains(inf.String(), "f=+Inf") {
		t.Fatalf("inf render: %q", inf.String())
	}
	nan := Decision{Factor: math.NaN()}
	if !strings.Contains(nan.String(), "f=-") {
		t.Fatalf("nan render: %q", nan.String())
	}
}
