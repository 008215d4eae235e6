package mr

import (
	"testing"

	"smapreduce/internal/puma"
)

// TestProgressMilestones runs a small two-job workload with the
// progress hook attached and pins the milestone stream's shape: time
// and cumulative counters monotone, one submit/barrier/finish triple
// per job in causal order, samples interleaved throughout.
func TestProgressMilestones(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	c.SetOnProgress(func(p Progress) { snaps = append(snaps, p) })

	specs := []JobSpec{
		{Name: "j1", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 2},
		{Name: "j2", Profile: puma.MustGet("terasort"), InputMB: 1024, Reduces: 2, SubmitAt: 30},
	}
	if _, err := c.Run(specs...); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}

	counts := map[string]int{}
	lastT := -1.0
	lastFinished := 0
	for i, p := range snaps {
		counts[p.Milestone]++
		if p.At < lastT {
			t.Fatalf("snapshot %d: time went backwards (%v after %v)", i, p.At, lastT)
		}
		if p.JobsFinished < lastFinished {
			t.Fatalf("snapshot %d: JobsFinished regressed (%d after %d)", i, p.JobsFinished, lastFinished)
		}
		lastT, lastFinished = p.At, p.JobsFinished
		if p.JobsSubmitted < p.JobsFinished || p.JobsActive != p.JobsSubmitted-p.JobsFinished {
			t.Fatalf("snapshot %d: inconsistent counters %+v", i, p)
		}
		if p.MapPct < 0 || p.MapPct > 100 || p.ReducePct < 0 || p.ReducePct > 100 {
			t.Fatalf("snapshot %d: percentages out of range %+v", i, p)
		}
	}
	for _, m := range []EventKind{EvJobSubmitted, EvBarrier, EvJobFinished} {
		if counts[string(m)] != 2 {
			t.Errorf("milestone %q fired %d times, want 2", m, counts[string(m)])
		}
	}
	if counts[MilestoneSample] == 0 {
		t.Error("no sample milestones delivered")
	}

	final := snaps[len(snaps)-1]
	if final.JobsFinished != 2 || final.MapPct != 100 || final.ReducePct != 100 {
		t.Errorf("final snapshot %+v, want 2 finished at 100%%", final)
	}

	// Lifecycle milestones carry the job name; samples do not.
	for i, p := range snaps {
		if p.Milestone == MilestoneSample && p.Job != "" {
			t.Fatalf("snapshot %d: sample carries job %q", i, p.Job)
		}
		if p.Milestone != MilestoneSample && p.Job == "" {
			t.Fatalf("snapshot %d: %s milestone without a job", i, p.Milestone)
		}
	}
}
