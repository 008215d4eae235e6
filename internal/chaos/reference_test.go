package chaos

import (
	"bytes"
	"fmt"
	"testing"

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
