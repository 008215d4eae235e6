package mr

import (
	"fmt"
	"math"
)

// Speculative execution for map tasks, modelled on Hadoop's scheme:
// when a tracker has a free map slot and no pending work, the job
// tracker may clone the slowest-progressing running map onto it. The
// first attempt to commit wins; the loser is killed on the spot (its
// partial output is attempt-private, so nothing else unwinds).
//
// Reduce tasks are never speculated: a backup reducer would re-fetch
// its whole partition, which is why production Hadoop deployments
// commonly disable reduce speculation too.

// pickSpeculative selects a running map worth backing up for a free
// slot on tt, or nil. Scoring follows the LATE insight: compare
// progress *rates*, not absolute progress — late in a job every
// remaining task started recently, so absolute gaps never open, but a
// straggler's rate is low from its first second. A task qualifies when
// its rate falls below (1 − SpeculationGap) of its running peers' mean
// rate; among qualifiers the one with the longest estimated time to
// completion is cloned first. Caller must hold a mutation scope.
func (jt *JobTracker) pickSpeculative(tt *TaskTracker) *mapTask {
	cfg := jt.c.cfg
	now := jt.c.clock.Now()
	var candidate *mapTask
	longestETA := 0.0
	for _, j := range jt.jobOrder() {
		if jt.c.tenantAtCap(j) {
			continue // a backup attempt counts against the tenant's cap too
		}
		// Mean progress rate of running original attempts.
		sum, n := 0.0, 0
		for _, m := range j.maps {
			if m.state != TaskRunning || m.backupOf != nil {
				continue
			}
			if el := now - m.started; el > 0 {
				sum += m.progressFraction() / el
				n++
			}
		}
		if n < 2 {
			continue // nothing to compare against
		}
		meanRate := sum / float64(n)
		if meanRate <= 0 {
			continue
		}
		for _, m := range j.maps {
			if m.state != TaskRunning || m.backupOf != nil || m.backup != nil {
				continue
			}
			if m.tracker == tt {
				continue // a backup must run elsewhere
			}
			elapsed := now - m.started
			if elapsed < cfg.SpeculationMinRuntime {
				continue
			}
			rate := m.progressFraction() / elapsed
			if rate >= (1-cfg.SpeculationGap)*meanRate {
				continue
			}
			eta := math.Inf(1)
			if rate > 0 {
				eta = (1 - m.progressFraction()) / rate
			}
			if candidate == nil || eta > longestETA {
				longestETA = eta
				candidate = m
			}
		}
	}
	return candidate
}

// launchBackup clones original onto tt and starts it.
func (c *Cluster) launchBackup(tt *TaskTracker, original *mapTask) {
	if original.backup != nil || original.backupOf != nil {
		panic(fmt.Sprintf("mr: backup of %s/%d already exists or is itself a backup",
			original.job.Spec.Name, original.id))
	}
	clone := &mapTask{
		job:        original.job,
		id:         original.id,
		split:      original.split,
		outputHost: -1,
		backupOf:   original,
	}
	original.backup = clone
	original.job.SpeculativeLaunched++
	c.note(transition{kind: EvSpeculative, job: original.job, task: "map", id: original.id, tracker: tt.id,
		x: float64(original.tracker.id)})
	c.launchMap(tt, clone)
}

// resolveSpeculation is called when attempt m commits: it kills the
// losing sibling (if any) and reports whether this commit is the
// logical task's first (false means a duplicate that must be dropped —
// impossible by construction, but checked defensively).
func (c *Cluster) resolveSpeculation(m *mapTask) bool {
	orig := m.original()
	var loser *mapTask
	if m == orig {
		loser = orig.backup
	} else {
		loser = orig
		orig.job.SpeculativeWins++
	}
	orig.backup = nil
	m.backupOf = nil
	if loser == nil {
		return true
	}
	switch loser.state {
	case TaskRunning:
		c.killAttempt(loser)
	case TaskDone:
		// The sibling committed first; our commit is a duplicate.
		return false
	}
	return true
}

// killAttempt tears down a running attempt without requeueing it.
func (c *Cluster) killAttempt(m *mapTask) {
	tt := m.tracker
	if m.readFlow != nil {
		c.fabric.Remove(m.readFlow)
	}
	c.dropOp(m.computeOp)
	c.dropOp(m.readOp) // unbinds the read flow before it goes back to the pool
	c.dropOp(m.sortOp)
	c.dropOp(m.spillOp)
	if m.readFlow != nil {
		c.releaseFlow(m.readFlow)
		m.readFlow = nil
	}
	m.computeOp, m.readOp, m.sortOp, m.spillOp = nil, nil, nil, nil
	removeRunning(&tt.runningMaps, m)
	c.tenantTaskStopped(m.job, true)
	c.traceMapEnd(m, "killed")
	m.state = TaskDone // retired; the logical task's result came from the winner
	m.tracker = nil
	c.jt.taskFreed(tt)
}
