package mr

import (
	"bytes"
	"testing"

	"smapreduce/internal/puma"
)

// Regression tests for the sort-ordering sweep: every comparator that
// feeds map-iteration-ordered slices into sort.Slice must be a strict
// total order, or runs that are otherwise identical can emit different
// event logs depending on map iteration order.

func TestMapAttemptLessIsTotalOrder(t *testing.T) {
	j1, j2 := &Job{ID: 1}, &Job{ID: 2}
	orig := &mapTask{job: j1, id: 3}
	backup := &mapTask{job: j1, id: 3, backupOf: orig}
	other := &mapTask{job: j1, id: 4}
	otherJob := &mapTask{job: j2, id: 0}

	// The tie-prone case: an original and its speculative backup share
	// job and task id. The original must sort strictly first.
	if !mapAttemptLess(orig, backup) {
		t.Error("original does not precede its backup")
	}
	if mapAttemptLess(backup, orig) {
		t.Error("backup precedes its original")
	}
	// Irreflexive on every representative.
	for _, m := range []*mapTask{orig, backup, other, otherJob} {
		if mapAttemptLess(m, m) {
			t.Errorf("attempt %+v compares less than itself", m)
		}
	}
	// Job then task id ordering.
	if !mapAttemptLess(orig, other) || !mapAttemptLess(other, otherJob) {
		t.Error("job/task ordering broken")
	}
}

func TestReduceAttemptLessIsTotalOrder(t *testing.T) {
	j1, j2 := &Job{ID: 1}, &Job{ID: 2}
	a := &reduceTask{job: j1, partition: 0}
	b := &reduceTask{job: j1, partition: 5}
	c := &reduceTask{job: j2, partition: 0}
	if !reduceAttemptLess(a, b) || reduceAttemptLess(b, a) {
		t.Error("partition ordering broken")
	}
	if !reduceAttemptLess(b, c) {
		t.Error("job ordering broken")
	}
	if reduceAttemptLess(a, a) {
		t.Error("not irreflexive")
	}
}

func TestFailureEventLogByteIdenticalAcrossRuns(t *testing.T) {
	// End-to-end regression: a speculation-heavy run with a mid-wave
	// tracker failure repeatedly produces the same event log bytes.
	// The failure path sorts the dead tracker's running sets, which are
	// Go maps — iteration order varies between runs, so any tie left in
	// the comparators shows up as log divergence here.
	run := func() []byte {
		cfg := failureConfig()
		cfg.Speculation = true
		c := MustNewCluster(cfg)
		log := c.EnableEventLog()
		c.ScheduleFailure(3, 18)
		specs := []JobSpec{
			{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 4096, Reduces: 8},
			{Name: "g", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, SubmitAt: 2},
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
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run()
	for i := 0; i < 4; i++ {
		if got := run(); !bytes.Equal(got, ref) {
			t.Fatalf("run %d produced a different event log", i)
		}
	}
}

func TestReduceReportTimesPopulated(t *testing.T) {
	// Reduce TaskReports used to carry zero start/finish times, which
	// made every finished reduce tie in SlowestTasks.
	j := runOne(t, smallConfig(), terasortJob(1024))
	rep := j.Report(MustNewCluster(smallConfig()))
	reduces := 0
	for _, tr := range rep.Tasks {
		if tr.Type != "reduce" || !tr.Done {
			continue
		}
		reduces++
		if !(tr.FinishedAt > tr.StartedAt && tr.StartedAt > 0) {
			t.Fatalf("reduce %d times not populated: started=%v finished=%v",
				tr.ID, tr.StartedAt, tr.FinishedAt)
		}
	}
	if reduces == 0 {
		t.Fatal("no finished reduces in report")
	}
}

func TestSlowestTasksDeterministicUnderTies(t *testing.T) {
	// Force start-time ties by hand and check the declared total order
	// (latest start first, then type, then id) holds regardless of the
	// input ordering.
	rep := &JobReport{Tasks: []TaskReport{
		{Type: "reduce", ID: 2, Tracker: 0, StartedAt: 10, Done: true},
		{Type: "map", ID: 7, Tracker: 1, StartedAt: 10, Done: true},
		{Type: "reduce", ID: 0, Tracker: 2, StartedAt: 10, Done: true},
		{Type: "map", ID: 1, Tracker: 0, StartedAt: 30, Done: true},
		{Type: "map", ID: 4, Tracker: 0, StartedAt: 10, Done: true},
	}}
	want := []struct {
		typ string
		id  int
	}{
		{"map", 1}, {"map", 4}, {"map", 7}, {"reduce", 0}, {"reduce", 2},
	}
	for trial := 0; trial < 4; trial++ {
		got := rep.SlowestTasks(5)
		for i, w := range want {
			if got[i].Type != w.typ || got[i].ID != w.id {
				t.Fatalf("trial %d position %d = %s/%d, want %s/%d",
					trial, i, got[i].Type, got[i].ID, w.typ, w.id)
			}
		}
		// Rotate the input so a lazily-ordered sort would be exposed.
		rep.Tasks = append(rep.Tasks[1:], rep.Tasks[0])
	}
}
