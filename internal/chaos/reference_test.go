package chaos

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"smapreduce/internal/arrival"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
)

// referenceSeed runs one chaos seed in the default mode and again in
// mr's reference mode (SMR_REFERENCE=1, read at cluster construction)
// and requires byte-identical artifacts. The fault schedule drives
// every self-rescheduling chain and pooled teardown path through its
// edge cases: heartbeat cancel + resume, probation timers, slowdown
// windows, controller and sampler ticks across tracker churn, and ops
// and flows aborted mid-phase.
func referenceSeed(t *testing.T, seed uint64) {
	t.Helper()

	base := runSoak(t, seed, nil)
	horizon := 0.0
	for _, j := range base.jobs {
		if j.FinishedAt > horizon {
			horizon = j.FinishedAt
		}
	}
	horizon *= 0.7
	if horizon < 1 {
		horizon = 1
	}
	sched := Generate(sim.NewRand(seed), soakWorkers, horizon)

	def := runSoak(t, seed, &sched)
	t.Setenv("SMR_REFERENCE", "1")
	ref := runSoak(t, seed, &sched)

	if !bytes.Equal(def.logJSON, ref.logJSON) {
		t.Fatalf("seed %d: event logs differ between default and reference mode\nschedule:\n%s", seed, sched)
	}
	if !bytes.Equal(def.traceJS, ref.traceJS) {
		t.Fatalf("seed %d: traces differ between default and reference mode\nschedule:\n%s", seed, sched)
	}
	if def.audits != ref.audits {
		t.Fatalf("seed %d: audit records differ between default and reference mode\nschedule:\n%s", seed, sched)
	}
}

// Idle gaps of the idle-gap soak: its jobs arrive at 0, idleGapEnd and
// 450, and its in-gap faults land inside [idleGapStart, idleGapEnd).
const idleGapStart, idleGapEnd = 200.0, 300.0

// idleGapFaults land while every tracker is parked: a heartbeat loss
// long enough to blacklist, a crash and its rejoin.
const idleGapFaults = `
slow node5 @20 for 40 cpu 0.5 disk 0.6
hbloss tt2 @210.5 for 20
crash tt3 @220.25
rejoin tt3 @240
`

// runIdleGapSoak runs the soak's Dynamic stack on open arrivals with
// idle gaps between jobs, so the trackers park their heartbeats, with
// idleGapFaults landing in the first gap.
func runIdleGapSoak(t *testing.T, seed uint64) (soakRun, uint64) {
	t.Helper()
	sched, err := ParseSchedule(idleGapFaults)
	if err != nil {
		t.Fatal(err)
	}
	specs := []mr.JobSpec{
		{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 1024, Reduces: 6},
		{Name: "grep", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: idleGapEnd},
		{Name: "wc", Profile: puma.MustGet("wordcount"), InputMB: 512, Reduces: 3, SubmitAt: 450},
	}
	var parked uint64
	run := runSoakWith(t, seed, &sched, func(c *mr.Cluster) ([]*mr.Job, error) {
		jobs, err := c.RunArrivals(arrival.FromSpecs(specs))
		parked = c.ParkedBeats()
		return jobs, err
	})
	return run, parked
}

// TestIdleGapSoakReferenceDifferential runs the idle-gap soak in the
// default mode, which parks the heartbeats of quiet trackers, and in
// reference mode, which never parks, and requires byte-identical
// artifacts. The Dynamic slot manager's commands, the admissions that
// end each gap, and the in-gap faults all meet parked chains.
func TestIdleGapSoakReferenceDifferential(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			def, parked := runIdleGapSoak(t, seed)
			if parked == 0 && os.Getenv("SMR_REFERENCE") != "1" {
				t.Fatal("the default run parked no heartbeat; the differential is vacuous")
			}
			if ts := def.jobs[0]; ts.FinishedAt >= idleGapStart {
				t.Fatalf("job ts finishes at %v, inside the fault gap", ts.FinishedAt)
			}
			t.Setenv("SMR_REFERENCE", "1")
			ref, refParked := runIdleGapSoak(t, seed)
			if refParked != 0 {
				t.Fatalf("the reference run parked %d heartbeats", refParked)
			}
			if !bytes.Equal(def.logJSON, ref.logJSON) {
				t.Fatal("event logs differ between default and reference mode")
			}
			if !bytes.Equal(def.traceJS, ref.traceJS) {
				t.Fatal("traces differ between default and reference mode")
			}
			if def.audits != ref.audits {
				t.Fatal("audit records differ between default and reference mode")
			}
		})
	}
}

// TestSoakReferenceDifferential pins the optimised paths on the chaos
// workload: default and reference runs of the same seeded fault
// schedule must emit byte-identical logs, traces and audits.
func TestSoakReferenceDifferential(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			referenceSeed(t, seed)
		})
	}
}
