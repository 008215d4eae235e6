package mr

import (
	"testing"

	"smapreduce/internal/puma"
)

// failureConfig uses a slightly larger cluster so one dead tracker
// leaves plenty of capacity.
func failureConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	return cfg
}

func runWithFailure(t *testing.T, spec JobSpec, failID int, failAt float64) (*Job, *Cluster) {
	t.Helper()
	c := MustNewCluster(failureConfig())
	c.ScheduleFailure(failID, failAt)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatalf("Run with failure: %v", err)
	}
	return jobs[0], c
}

func TestFailTrackerValidation(t *testing.T) {
	c := MustNewCluster(failureConfig())
	if err := c.FailTracker(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := c.FailTracker(99); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if err := c.FailTracker(3); err != nil {
		t.Fatal(err)
	}
	if !c.Trackers()[3].Failed() {
		t.Fatal("tracker not marked failed")
	}
	if err := c.FailTracker(3); err == nil {
		t.Fatal("double failure accepted")
	}
}

func TestJobSurvivesEarlyFailure(t *testing.T) {
	// Kill a tracker while the first map wave is running.
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 4096, Reduces: 8}
	j, c := runWithFailure(t, spec, 2, 3.0)
	if !j.Finished() {
		t.Fatal("job did not survive the failure")
	}
	if j.MapsDone() != j.NumMaps() || j.ReducesDone() != j.NumReduces() {
		t.Fatalf("counts wrong after recovery: %d/%d maps, %d/%d reduces",
			j.MapsDone(), j.NumMaps(), j.ReducesDone(), j.NumReduces())
	}
	// The dead tracker must hold nothing.
	tt := c.Trackers()[2]
	if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
		t.Fatal("dead tracker still holds tasks")
	}
}

func TestJobSurvivesMidShuffleFailure(t *testing.T) {
	// Kill a tracker once a good portion of maps have committed: their
	// outputs on that node are lost and must re-execute.
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 4096, Reduces: 8}
	noFail := MustNewCluster(failureConfig())
	base, err := noFail.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	failAt := base[0].BarrierAt * 0.7
	j, _ := runWithFailure(t, spec, 5, failAt)
	if !j.Finished() {
		t.Fatal("job did not finish after mid-shuffle failure")
	}
	// Losing a node mid-run costs time. Re-executed tasks redraw their
	// jittered costs, so allow a small tolerance, but a failure run
	// finishing meaningfully faster than a clean one is a bug.
	if j.FinishedAt < 0.95*base[0].FinishedAt {
		t.Fatalf("failure run finished at %v, well before clean run %v", j.FinishedAt, base[0].FinishedAt)
	}
}

func TestFailureAfterBarrierNoReexecutionNeeded(t *testing.T) {
	// Grep's shuffle is tiny: reducers have everything shortly after
	// the barrier, so a late failure must not resurrect map tasks.
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 4096, Reduces: 8}
	noFail := MustNewCluster(failureConfig())
	base, err := noFail.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fail just before the end, after the barrier.
	failAt := base[0].BarrierAt + 0.8*(base[0].FinishedAt-base[0].BarrierAt)
	j, _ := runWithFailure(t, spec, 1, failAt)
	if !j.Finished() {
		t.Fatal("unfinished")
	}
	if j.BarrierAt < 0 {
		t.Fatal("barrier was unwound although no reducer needed the lost outputs")
	}
}

func TestFailureDeterministic(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	a, _ := runWithFailure(t, spec, 4, 10)
	b, _ := runWithFailure(t, spec, 4, 10)
	if a.FinishedAt != b.FinishedAt {
		t.Fatalf("failure runs diverged: %v vs %v", a.FinishedAt, b.FinishedAt)
	}
}

func TestMultipleFailures(t *testing.T) {
	spec := JobSpec{Name: "ii", Profile: puma.MustGet("inverted-index"), InputMB: 4096, Reduces: 8}
	c := MustNewCluster(failureConfig())
	c.ScheduleFailure(0, 5)
	c.ScheduleFailure(7, 20)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job did not survive two failures")
	}
	alive := 0
	for _, tt := range c.Trackers() {
		if !tt.Failed() {
			alive++
		}
	}
	if alive != 6 {
		t.Fatalf("alive trackers = %d, want 6", alive)
	}
}

func TestFailureWithMultipleJobs(t *testing.T) {
	c := MustNewCluster(failureConfig())
	c.ScheduleFailure(3, 15)
	specs := []JobSpec{
		{Name: "a", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, SubmitAt: 0},
		{Name: "b", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 4, SubmitAt: 5},
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

func TestFailedTrackerGetsNoWork(t *testing.T) {
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 4096, Reduces: 8}
	c := MustNewCluster(failureConfig())
	c.ScheduleFailure(2, 2)
	// Watch the dead tracker throughout via a controller-style probe:
	// simplest is checking after the run that it ended empty and its
	// counters stopped advancing shortly after death.
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("unfinished")
	}
	tt := c.Trackers()[2]
	if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
		t.Fatal("dead tracker holds tasks after run")
	}
}

func TestShuffledVolumeConsistentAfterReexecution(t *testing.T) {
	// ShuffledMB is decremented on loss and re-added on re-commit; the
	// final value must match the profile's expectation like a clean run.
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	j, _ := runWithFailure(t, spec, 3, 12)
	want := spec.InputMB * spec.Profile.ShuffleRatio()
	if j.ShuffledMB < want*0.85 || j.ShuffledMB > want*1.15 {
		t.Fatalf("ShuffledMB = %v after recovery, want ≈%v", j.ShuffledMB, want)
	}
}
