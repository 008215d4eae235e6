package chaos

import (
	"bytes"
	"testing"

	"smapreduce/internal/arrival"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
)

// Mid-run job submission interacting with injected faults: jobs that
// arrive while a tracker is crashed, blacklisted or degraded must be
// admitted without panicking, never land a task on a down tracker, and
// leave the cluster in a clean final state.

func chaosArrivalConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	return cfg
}

// chaosArrivalSpecs arrives one job before the faults, several during
// the incident windows, and a straggler after recovery.
func chaosArrivalSpecs() []mr.JobSpec {
	mk := func(name string, at float64, mb float64) mr.JobSpec {
		return mr.JobSpec{
			Name: name, Profile: puma.MustGet("grep"), InputMB: mb, Reduces: 4,
			SubmitAt: at, Tenant: "batch",
		}
	}
	return []mr.JobSpec{
		mk("pre", 0, 1024),
		mk("during-crash", 12, 512),     // tt3 is down, tt2 silent
		mk("during-blacklist", 25, 512), // tt2 blacklisted by now
		mk("post", 90, 512),             // after rejoin and probation
	}
}

func TestMidRunSubmissionDuringFaults(t *testing.T) {
	c := mr.MustNewCluster(chaosArrivalConfig())
	log := c.EnableEventLog()
	sched, err := ParseSchedule(`
crash tt3 @10
hbloss tt2 @8 for 40
rejoin tt3 @60
slow node5 @20 for 30 cpu 0.5 disk 0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := sched.Apply(c); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.RunArrivals(arrival.FromSpecs(chaosArrivalSpecs()))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("admitted %d jobs, want 4", len(jobs))
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %s unfinished after faults", j.Spec.Name)
		}
	}

	// Replay the event log against the fault timeline: no task may
	// start on tt3 while it is down [10, 60).
	downAt, upAt := -1.0, -1.0
	for _, e := range log.Events() {
		switch e.Kind {
		case mr.EvTrackerDown:
			if e.Tracker == 3 {
				downAt = e.At
			}
		case mr.EvTrackerRejoin:
			if e.Tracker == 3 {
				upAt = e.At
			}
		case mr.EvTaskStarted, mr.EvSpeculative:
			if e.Tracker == 3 && downAt >= 0 && upAt < 0 {
				t.Fatalf("task %s/%s started on crashed tt3 at t=%v", e.Job, e.Task, e.At)
			}
		}
	}
	if downAt < 0 || upAt < 0 {
		t.Fatalf("fault events missing: down=%v rejoin=%v", downAt, upAt)
	}

	// Clean final state: no tracker holds tasks, tenant counters are
	// back to zero.
	for _, tt := range c.Trackers() {
		if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
			t.Fatalf("tracker %d still holds tasks", tt.ID())
		}
	}
	for _, name := range c.TenantNames() {
		if n := c.TenantRunning(name); n != 0 {
			t.Fatalf("tenant %s ends with %d running attempts", name, n)
		}
	}
}

func TestMidRunSubmissionDuringFaultsDeterministic(t *testing.T) {
	run := func() []byte {
		c := mr.MustNewCluster(chaosArrivalConfig())
		log := c.EnableEventLog()
		sched, err := ParseSchedule("crash tt3 @10\nhbloss tt2 @8 for 40\nrejoin tt3 @60\n")
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Apply(c); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunArrivals(arrival.FromSpecs(chaosArrivalSpecs())); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run()
	for i := 0; i < 3; i++ {
		if got := run(); !bytes.Equal(got, ref) {
			t.Fatalf("run %d diverged under faults + open arrivals", i)
		}
	}
}
