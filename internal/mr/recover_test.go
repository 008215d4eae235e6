package mr

import (
	"math"
	"reflect"
	"testing"

	"smapreduce/internal/puma"
)

func TestRecoverTrackerValidation(t *testing.T) {
	c := MustNewCluster(failureConfig())
	if err := c.RecoverTracker(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := c.RecoverTracker(99); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if err := c.RecoverTracker(3); err == nil {
		t.Fatal("recovering a live tracker accepted")
	}
	if err := c.FailTracker(3); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverTracker(3); err != nil {
		t.Fatal(err)
	}
	tt := c.Trackers()[3]
	if tt.Failed() || tt.HeartbeatLost() || tt.Blacklisted() || tt.OnProbation() {
		t.Fatal("rejoined tracker not schedulable")
	}
	cfg := c.Config()
	if tt.MapSlots() != cfg.MapSlots || tt.ReduceSlots() != cfg.ReduceSlots {
		t.Fatalf("rejoined targets %d/%d, want re-seeded %d/%d",
			tt.MapSlots(), tt.ReduceSlots(), cfg.MapSlots, cfg.ReduceSlots)
	}
	if err := c.RecoverTracker(3); err == nil {
		t.Fatal("double recovery accepted")
	}
}

// TestRecoverRejoinDifferential is the recovery-path pin: a tracker
// that crashes and rejoins before it ever holds committed output (the
// job is submitted after the rejoin) must leave no trace — milestones,
// final Stats and the event log (minus the two fault events) match the
// fault-free run at full float precision.
//
// The rejoin time is chosen congruent to the tracker's heartbeat
// stagger offset (tracker 5 of 8, period 1.0 → offset 0.625) so the
// restarted heartbeat chain lands on the fault-free grid.
func TestRecoverRejoinDifferential(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8, SubmitAt: 10}

	clean := MustNewCluster(failureConfig())
	cleanLog := clean.EnableEventLog()
	cleanJobs, err := clean.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleFailure(5, 2.0)
	c.ScheduleRecovery(5, 4.625)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	cj, j := cleanJobs[0], jobs[0]
	if j.Submitted != cj.Submitted || j.Started != cj.Started ||
		j.BarrierAt != cj.BarrierAt || j.FinishedAt != cj.FinishedAt ||
		j.ShuffledMB != cj.ShuffledMB {
		t.Fatalf("milestones diverge:\nclean   %v %v %v %v %v\nrecover %v %v %v %v %v",
			cj.Submitted, cj.Started, cj.BarrierAt, cj.FinishedAt, cj.ShuffledMB,
			j.Submitted, j.Started, j.BarrierAt, j.FinishedAt, j.ShuffledMB)
	}
	if !reflect.DeepEqual(clean.Snapshot(), c.Snapshot()) {
		t.Fatalf("final Stats diverge:\nclean   %+v\nrecover %+v", clean.Snapshot(), c.Snapshot())
	}

	// Event-by-event equality once the crash/rejoin pair is filtered out.
	events := make([]Event, 0, len(log.Events()))
	for _, e := range log.Events() {
		if e.Kind == EvTrackerDown || e.Kind == EvTrackerRejoin {
			continue
		}
		events = append(events, e)
	}
	cleanEvents := cleanLog.Events()
	if len(events) != len(cleanEvents) {
		t.Fatalf("event counts differ: clean %d, recover %d (after filtering fault events)",
			len(cleanEvents), len(events))
	}
	for i := range events {
		if events[i] != cleanEvents[i] {
			t.Fatalf("event %d diverges:\nclean   %+v\nrecover %+v", i, cleanEvents[i], events[i])
		}
	}
}

// TestRecoverMidRunRejoinWorks pins the useful half of recovery: a
// tracker crashing mid-run and rejoining later finishes the job, ends
// schedulable, and picks up new work after the rejoin.
func TestRecoverMidRunRejoinWorks(t *testing.T) {
	// 8 GB keeps the map phase busy well past the rejoin at t=30, so
	// the returning tracker has pending work to pick up.
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 8192, Reduces: 8}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleFailure(5, 10)
	c.ScheduleRecovery(5, 30)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job did not finish across crash and rejoin")
	}
	if jobs[0].MapsDone() != jobs[0].NumMaps() || jobs[0].ReducesDone() != jobs[0].NumReduces() {
		t.Fatal("completion counts wrong after rejoin")
	}
	tt := c.Trackers()[5]
	if tt.Failed() {
		t.Fatal("tracker still failed after rejoin")
	}
	launchedAfterRejoin := false
	for _, e := range log.Events() {
		if e.Kind == EvTaskStarted && e.Tracker == 5 && e.At >= 30 {
			launchedAfterRejoin = true
		}
		if e.Kind == EvTaskStarted && e.Tracker == 5 && e.At >= 10 && e.At < 30 {
			t.Fatalf("task launched on dead tracker: %+v", e)
		}
	}
	if !launchedAfterRejoin {
		t.Fatal("rejoined tracker never received work")
	}
}

// TestScheduleFailureTwiceLogsFaultError pins the fix for the
// schedule-time crash: a second failure of the same tracker arriving
// through the clock must surface as a fault-error event, not a panic
// inside the clock callback.
func TestScheduleFailureTwiceLogsFaultError(t *testing.T) {
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleFailure(3, 2)
	c.ScheduleFailure(3, 4) // tracker already dead when this fires
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job unfinished")
	}
	if n := len(log.Filter(EvTrackerDown)); n != 1 {
		t.Fatalf("%d tracker-down events, want 1", n)
	}
	errs := log.Filter(EvFaultError)
	if len(errs) != 1 {
		t.Fatalf("%d fault-error events, want 1: %+v", len(errs), errs)
	}
	if errs[0].Tracker != 3 || errs[0].At != 4 {
		t.Fatalf("fault error misattributed: %+v", errs[0])
	}
}

func TestHeartbeatLossValidation(t *testing.T) {
	c := MustNewCluster(failureConfig())
	if err := c.BeginHeartbeatLoss(-1, 5); err == nil {
		t.Fatal("bad id accepted")
	}
	if err := c.BeginHeartbeatLoss(2, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := c.BeginHeartbeatLoss(2, math.Inf(1)); err == nil {
		t.Fatal("infinite duration accepted")
	}
	if err := c.FailTracker(4); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginHeartbeatLoss(4, 5); err == nil {
		t.Fatal("heartbeat loss on failed tracker accepted")
	}
	if err := c.BeginHeartbeatLoss(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginHeartbeatLoss(2, 5); err == nil {
		t.Fatal("nested heartbeat loss accepted")
	}
}

// findEvent returns the first event of the kind for the tracker at or
// after from, or fails the test.
func findEvent(t *testing.T, events []Event, kind EventKind, tracker int, from float64) Event {
	t.Helper()
	for _, e := range events {
		if e.Kind == kind && e.Tracker == tracker && e.At >= from {
			return e
		}
	}
	t.Fatalf("no %s event for tracker %d at/after %v", kind, tracker, from)
	return Event{}
}

// TestHeartbeatLossLifecycle drives the full state machine twice on
// one tracker: loss → blacklist (after blacklistTimeout) → restore →
// probation → cleared, with the probation backoff doubling on the
// second incident: blacklistTimeout 3, probationPeriod 5.
func TestHeartbeatLossLifecycle(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleHeartbeatLoss(2, 5, 6)  // blacklists at 8, restores at 11, probation to 16
	c.ScheduleHeartbeatLoss(2, 20, 6) // second incident: probation doubles to 10s, 26..36
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job unfinished under heartbeat loss")
	}
	events := log.Events()

	for incident, at := range map[int]float64{1: 5.0, 2: 20.0} {
		lost := findEvent(t, events, EvTrackerHBLost, 2, at)
		if lost.At != at {
			t.Fatalf("incident %d: hb-lost at %v, want %v", incident, lost.At, at)
		}
		black := findEvent(t, events, EvTrackerBlacklisted, 2, at)
		if black.At != at+blacklistTimeout {
			t.Fatalf("incident %d: blacklisted at %v, want %v", incident, black.At, at+blacklistTimeout)
		}
		restored := findEvent(t, events, EvTrackerHBRestored, 2, at)
		if restored.At != at+6 {
			t.Fatalf("incident %d: restored at %v, want %v", incident, restored.At, at+6)
		}
		probation := findEvent(t, events, EvTrackerProbation, 2, at)
		if probation.At != restored.At {
			t.Fatalf("incident %d: probation at %v, want %v", incident, probation.At, restored.At)
		}
		backoff := probationPeriod * math.Pow(2, float64(incident-1))
		cleared := findEvent(t, events, EvTrackerCleared, 2, at)
		if cleared.At != restored.At+backoff {
			t.Fatalf("incident %d: cleared at %v, want %v (backoff %v)",
				incident, cleared.At, restored.At+backoff, backoff)
		}
		// No new work lands on the tracker anywhere inside the incident.
		for _, e := range events {
			if e.Kind == EvTaskStarted && e.Tracker == 2 && e.At >= at && e.At < cleared.At {
				t.Fatalf("incident %d: task launched during unavailability window: %+v", incident, e)
			}
		}
	}

	tt := c.Trackers()[2]
	if tt.HeartbeatLost() || tt.Blacklisted() || tt.OnProbation() {
		t.Fatal("tracker not fully recovered at end of run")
	}
}

// TestHeartbeatLossBelowTimeoutNoBlacklist: a short blip never
// blacklists and carries no probation.
func TestHeartbeatLossBelowTimeoutNoBlacklist(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleHeartbeatLoss(6, 5, 2) // 2s < blacklistTimeout 3s
	if _, err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n := len(log.Filter(EvTrackerBlacklisted)); n != 0 {
		t.Fatalf("short blip blacklisted the tracker (%d events)", n)
	}
	if n := len(log.Filter(EvTrackerProbation)); n != 0 {
		t.Fatalf("short blip produced probation (%d events)", n)
	}
	if len(log.Filter(EvTrackerHBLost)) != 1 || len(log.Filter(EvTrackerHBRestored)) != 1 {
		t.Fatal("loss window events missing")
	}
}

// TestCrashDuringHeartbeatLoss: a crash inside the loss window
// supersedes the incident — the resume timer is cancelled by stop(),
// and the rejoin registers cleanly with no leftover loss state.
func TestCrashDuringHeartbeatLoss(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleHeartbeatLoss(4, 5, 10)
	c.ScheduleFailure(4, 8)   // mid-window crash
	c.ScheduleRecovery(4, 20) // rejoin after the window would have closed
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job unfinished")
	}
	if n := len(log.Filter(EvTrackerHBRestored)); n != 0 {
		t.Fatalf("superseded loss window still emitted hb-restored (%d)", n)
	}
	tt := c.Trackers()[4]
	if tt.Failed() || tt.HeartbeatLost() || tt.Blacklisted() || tt.OnProbation() {
		t.Fatal("rejoin left stale fault state")
	}
}

func TestScheduleDegradePanicsOnBadArgs(t *testing.T) {
	c := MustNewCluster(failureConfig())
	cases := []func(){
		func() { c.ScheduleNodeDegrade(99, 1, 1, 0.5, 0.5) },
		func() { c.ScheduleNodeDegrade(1, 1, 1, 0, 0.5) },
		func() { c.ScheduleNodeDegrade(1, 1, 1, 0.5, 1.5) },
		func() { c.ScheduleNodeDegrade(1, 1, 0, 0.5, 0.5) },
		func() { c.ScheduleLinkDegrade(99, 1, 1, 0.5, 0.5) },
		func() { c.ScheduleLinkDegrade(1, 1, 1, -0.1, 0.5) },
		func() { c.ScheduleLinkDegrade(1, 1, 1, 0.5, 1.1) },
		func() { c.ScheduleLinkDegrade(1, 1, 0, 0.5, 0.5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on invalid degrade args", i)
				}
			}()
			fn()
		}()
	}
}

// TestNodeDegradeSlowsWork: halving a node's service rates mid-run
// makes the job finish later than the clean run, and the degradation
// window is visible in the event log.
func TestNodeDegradeSlowsWork(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	clean := MustNewCluster(failureConfig())
	base, err := clean.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleNodeDegrade(3, 2, 20, 0.25, 0.25)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job unfinished under degradation")
	}
	if jobs[0].FinishedAt <= base[0].FinishedAt {
		t.Fatalf("degraded run (%v) not slower than clean (%v)", jobs[0].FinishedAt, base[0].FinishedAt)
	}
	deg := findEvent(t, log.Events(), EvNodeDegraded, 3, 0)
	res := findEvent(t, log.Events(), EvNodeRestored, 3, 0)
	if deg.At != 2 || res.At != 22 {
		t.Fatalf("degradation window [%v, %v], want [2, 22]", deg.At, res.At)
	}
}

// TestLinkSeverStallsAndRecovers: fully severing a node's links
// mid-shuffle stalls its flows at rate zero; after restore the job
// still completes with full counts.
func TestLinkSeverStallsAndRecovers(t *testing.T) {
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 8}
	c := MustNewCluster(failureConfig())
	log := c.EnableEventLog()
	c.ScheduleLinkDegrade(2, 14, 8, 0, 0) // full partition across the barrier region
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job unfinished after partition healed")
	}
	if jobs[0].MapsDone() != jobs[0].NumMaps() || jobs[0].ReducesDone() != jobs[0].NumReduces() {
		t.Fatal("completion counts wrong after partition")
	}
	if len(log.Filter(EvLinkDegraded)) != 1 || len(log.Filter(EvLinkRestored)) != 1 {
		t.Fatal("partition events missing")
	}
}
