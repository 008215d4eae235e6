package mr

import (
	"fmt"
	"slices"
	"sort"
)

// FailTracker kills task tracker id at the current virtual time,
// reproducing Hadoop's failure semantics:
//
//   - the tracker stops heartbeating and never receives work again;
//   - its running map and reduce tasks are aborted and requeued;
//   - committed map outputs stored on its local disk are lost — any
//     map whose output some reducer has not yet received re-executes
//     on a live tracker (outputs already fetched by a reducer are
//     durable at the reducer and are not re-fetched);
//   - reducers lose nothing they have already copied; their pending
//     fetches from the dead node are re-queued against the map's new
//     execution.
//
// The method is the fault-injection hook used by the robustness tests;
// schedule it before Run with ScheduleFailure. Failing an unknown or
// already-failed tracker returns an error.
func (c *Cluster) FailTracker(id int) error {
	if id < 0 || id >= len(c.trackers) {
		return fmt.Errorf("mr: FailTracker(%d): no such tracker", id)
	}
	tt := c.trackers[id]
	if tt.failed {
		return fmt.Errorf("mr: tracker %d already failed", id)
	}
	c.Mutate(func() { c.failTracker(tt) })
	return nil
}

// ScheduleFailure arranges for FailTracker(id) to fire at virtual time
// at. Call before Run. A failure that cannot be applied when the event
// fires (unknown tracker, already failed) is recorded in the event log
// and trace as an erroring fault instant rather than panicking: two
// overlapping fault schedules naming the same tracker are an
// operational conflict, not a programming error.
func (c *Cluster) ScheduleFailure(id int, at float64) {
	c.clock.Schedule(at, fmt.Sprintf("fail tt%d", id), func() {
		c.faultErr(id, "crash", c.FailTracker(id))
	})
}

// faultErr routes a fault-application error into the event log and
// trace. A nil err is a no-op, so fault callbacks can wrap their action
// unconditionally.
func (c *Cluster) faultErr(tracker int, kind string, err error) {
	if err != nil {
		c.note(transition{kind: EvFaultError, tracker: tracker, text: kind + ": " + err.Error()})
	}
}

// failTracker does the work inside a mutation scope.
func (c *Cluster) failTracker(tt *TaskTracker) {
	tt.failed = true
	tt.stop()
	tt.mapInputRate.Reset()
	tt.shuffleRate.Reset()
	c.note(transition{kind: EvTrackerDown, tracker: tt.id})

	// 1. Purge every reducer's shuffle state that references the dead
	// node: live flows are aborted without credit, queued bytes are
	// dropped (they will be re-delivered by re-executions).
	for _, j := range c.jt.queue {
		for _, r := range j.reduces {
			if r.state != TaskRunning {
				continue
			}
			s := &r.srcs[tt.id]
			if s.flow != nil {
				c.fabric.Remove(s.flow)
				c.dropOp(s.op) // unbinds first: Userdata must be clear before release
				c.releaseFlow(s.flow)
				s.flow, s.op = nil, nil
				r.nflows--
			}
			s.pendingMB = 0
			s.maps = s.maps[:0]
		}
	}

	// 2. Abort and requeue the tasks running on the dead tracker, in
	// task order: the running lists' order depends on which earlier
	// tasks finished, and would leak into the requeue sequence. The
	// aborts remove from the lists, so iterate over copies.
	maps := slices.Clone(tt.runningMaps)
	sort.Slice(maps, func(i, k int) bool { return mapAttemptLess(maps[i], maps[k]) })
	for _, m := range maps {
		// Speculation interplay: kill every attempt of the affected
		// logical task and requeue the logical task once. (Killing a
		// healthy sibling is slightly wasteful but keeps attempt state
		// two-valued; tracker failures are rare.)
		if m.backupOf != nil {
			orig := m.backupOf
			c.killAttempt(m)
			m.backupOf = nil
			orig.backup = nil
			continue
		}
		if m.backup != nil {
			if m.backup.state == TaskRunning {
				c.killAttempt(m.backup)
			}
			m.backup.backupOf = nil
			m.backup = nil
		}
		c.abortMap(m)
	}
	reduces := slices.Clone(tt.runningReduces)
	sort.Slice(reduces, func(i, k int) bool { return reduceAttemptLess(reduces[i], reduces[k]) })
	for _, r := range reduces {
		c.abortReduce(r)
	}

	// 3. Re-execute committed maps whose output lived on the dead node
	// and is still needed by some reducer.
	for _, j := range c.jt.queue {
		for _, m := range j.maps {
			if m.state != TaskDone || m.outputHost != tt.id {
				continue
			}
			if !c.outputStillNeeded(j, m) {
				continue
			}
			c.requeueCommittedMap(j, m)
		}
		// Reducers that were mid-shuffle may now be blocked on maps
		// that have to re-run; the barrier state is refreshed by the
		// requeue itself. Reducers already past shuffle are unaffected.
	}

	// The aborts emptied the dead tracker's slots; close any open
	// drain span rather than leaving it dangling past the failure.
	tt.traceDrainCheck()

	// 4. Wake the live trackers so freed work is picked up immediately
	// (assign itself skips the unschedulable ones).
	for _, live := range c.trackers {
		c.jt.assign(live)
	}
}

// mapAttemptLess is a total order over map task attempts: (job, task
// id, original-before-backup). The final key matters because an
// original and its speculative backup share job and task id — without
// it, two attempts of one logical task would compare equal and
// sort.Slice (which is not stable) could order victims differently
// between runs that are otherwise identical.
func mapAttemptLess(a, b *mapTask) bool {
	if a.job.ID != b.job.ID {
		return a.job.ID < b.job.ID
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.backupOf == nil && b.backupOf != nil
}

// reduceAttemptLess is a total order over reduce task attempts:
// (job, partition). Reduce tasks are never speculated, so one attempt
// per partition exists and the pair is already unique.
func reduceAttemptLess(a, b *reduceTask) bool {
	if a.job.ID != b.job.ID {
		return a.job.ID < b.job.ID
	}
	return a.partition < b.partition
}

// outputStillNeeded reports whether any reducer has not received map
// m's output in full.
func (c *Cluster) outputStillNeeded(j *Job, m *mapTask) bool {
	if m.shuffleMB <= 0 {
		return false // nothing was published
	}
	for _, r := range j.reduces {
		if r.state == TaskDone {
			continue
		}
		if r.state == TaskRunning && r.phase > 0 {
			continue // fetched everything already
		}
		if !r.got[m.id] {
			return true
		}
	}
	return false
}

// abortMap tears a running map attempt down and returns the task to
// the pending queue.
func (c *Cluster) abortMap(m *mapTask) {
	tt := m.tracker
	if m.readFlow != nil {
		c.fabric.Remove(m.readFlow)
	}
	// Dropping an op also takes its activity off the node.
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
	c.traceMapEnd(m, "aborted")
	m.state = TaskPending
	m.tracker = nil
	m.phase = 0
	m.pendingOps = 0
	c.jt.requeueMap(m.job, m)
	c.note(transition{kind: EvRequeued, job: m.job, task: "map", id: m.id, tracker: tt.id, text: "attempt aborted"})
}

// abortReduce tears a running reduce attempt down and returns the task
// to the pending queue. Everything it fetched dies with its local disk,
// so the attempt restarts from zero on the next tracker.
func (c *Cluster) abortReduce(r *reduceTask) {
	tt := r.tracker
	tt.node.Remove(&r.phantom)
	for i := range r.srcs {
		s := &r.srcs[i]
		if s.flow == nil {
			continue
		}
		c.fabric.Remove(s.flow)
		c.dropOp(s.op)
		c.releaseFlow(s.flow)
		s.flow, s.op = nil, nil
	}
	r.nflows = 0
	c.dropOp(r.sortOp)
	c.dropOp(r.mergeOp)
	c.dropOp(r.redOp)
	c.dropOp(r.writeOp)
	r.sortOp, r.mergeOp, r.redOp, r.writeOp = nil, nil, nil, nil
	removeRunning(&tt.runningReduces, r)
	c.tenantTaskStopped(r.job, false)
	c.traceReduceEnd(r, "aborted")

	r.state = TaskPending
	r.tracker = nil
	r.phase = 0
	r.pendingOps = 0
	r.started = 0
	r.fetchedMB = 0
	for i := range r.srcs {
		r.srcs[i].pendingMB = 0
		r.srcs[i].maps = r.srcs[i].maps[:0]
	}
	for i := range r.got {
		r.got[i] = false
	}

	// Rebuild the fetch queue from the outputs that exist right now;
	// outputs lost in the same failure are re-queued separately and
	// will re-deliver on commit. An outputLost map's host is back up
	// but rejoined with an empty disk, so it cannot serve either.
	for _, m := range r.job.maps {
		if m.state != TaskDone || m.shuffleMB <= 0 {
			continue
		}
		if m.outputLost || c.trackers[m.outputHost].failed {
			continue
		}
		s := &r.srcs[m.outputHost]
		s.pendingMB += m.shuffleMB * r.job.partWeights[r.partition]
		s.maps = append(s.maps, m)
	}
}

// requeueCommittedMap rolls a committed map back to pending because its
// output was lost. Milestones and counters are unwound so the barrier
// re-fires after the re-execution.
func (c *Cluster) requeueCommittedMap(j *Job, m *mapTask) {
	m.state = TaskPending
	m.tracker = nil
	m.outputHost = -1
	m.outputLost = false
	m.phase = 0
	m.pendingOps = 0
	j.mapsDone--
	j.ShuffledMB -= m.shuffleMB
	if j.BarrierAt >= 0 {
		j.BarrierAt = -1 // the barrier is no longer crossed
	}
	c.jt.requeueMap(j, m)
	c.note(transition{kind: EvRequeued, job: j, task: "map", id: m.id, tracker: -1, text: "output lost"})
}
