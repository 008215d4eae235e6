package mr

import (
	"fmt"
	"sort"
)

// JobTracker is the master: it queues jobs, schedules their tasks onto
// tracker slots (FIFO across jobs, locality-aware within a job), and
// holds the per-tracker slot targets decided by an attached controller.
type JobTracker struct {
	c *Cluster

	jobs  []*Job // submission order
	queue []*Job // unfinished, FIFO

	// Pending map tasks indexed by job and by replica host for fast
	// node-local matching.
	pendingMaps   map[*Job][]*mapTask
	pendingByHost map[*Job]hostIndex

	// Slot targets for the Dynamic policy, one pair per tracker,
	// delivered on the next heartbeat.
	desiredMaps    []int
	desiredReduces []int
}

func newJobTracker(c *Cluster) *JobTracker {
	jt := &JobTracker{
		c:              c,
		pendingMaps:    make(map[*Job][]*mapTask),
		pendingByHost:  make(map[*Job]hostIndex),
		desiredMaps:    make([]int, c.cfg.Workers),
		desiredReduces: make([]int, c.cfg.Workers),
	}
	for i := range jt.desiredMaps {
		jt.desiredMaps[i] = c.cfg.MapSlots
		jt.desiredReduces[i] = c.cfg.ReduceSlots
	}
	return jt
}

// hostIndex lists a job's map tasks by replica host over one flat
// array indexed by tracker: host h's tasks, in map order, are
// tasks[at[h]:at[h+1]].
type hostIndex struct {
	at    []int32
	tasks []*mapTask
}

// on returns the map tasks with a replica on host.
func (x hostIndex) on(host int) []*mapTask { return x.tasks[x.at[host]:x.at[host+1]] }

// admit registers a job at its submission time. A non-empty queue ends
// every tracker's quiet, so all parked heartbeats wake. The pending
// list and the by-host index share one array, so admission allocates
// per job rather than per host.
func (jt *JobTracker) admit(j *Job) {
	jt.c.wakeTrackers()
	j.Submitted = jt.c.clock.Now()
	jt.jobs = append(jt.jobs, j)
	jt.queue = append(jt.queue, j)
	at := make([]int32, jt.c.fs.Nodes()+1)
	for _, m := range j.maps {
		for _, h := range m.split.Hosts {
			at[h+1]++
		}
	}
	for h := 1; h < len(at); h++ {
		at[h] += at[h-1]
	}
	nm := len(j.maps)
	all := make([]*mapTask, nm+int(at[len(at)-1]))
	// Capped at nm, so a requeue that outgrows the pending list moves
	// it out rather than writing into the index.
	jt.pendingMaps[j] = all[:copy(all, j.maps):nm]
	tasks := all[nm:]
	// Filling each host's run through its start offset leaves at[h] at
	// host h's end; shifting by one restores the starts.
	for _, m := range j.maps {
		for _, h := range m.split.Hosts {
			tasks[at[h]] = m
			at[h]++
		}
	}
	copy(at[1:], at)
	at[0] = 0
	jt.pendingByHost[j] = hostIndex{at: at, tasks: tasks}
}

// retire drops a finished job from the scheduling queue.
func (jt *JobTracker) retire(j *Job) {
	for i, q := range jt.queue {
		if q == j {
			jt.queue = append(jt.queue[:i], jt.queue[i+1:]...)
			return
		}
	}
}

// desiredSlots returns the controller-decided targets for a tracker.
func (jt *JobTracker) desiredSlots(tracker int) (maps, reduces int) {
	return jt.desiredMaps[tracker], jt.desiredReduces[tracker]
}

// SetDesiredSlots records slot targets for one tracker; they take
// effect at that tracker's next heartbeat, mirroring the command-in-
// heartbeat-response protocol of §III-C. Targets that differ from the
// tracker's current ones wake its parked heartbeat.
func (jt *JobTracker) SetDesiredSlots(tracker, maps, reduces int) {
	if tracker < 0 || tracker >= len(jt.desiredMaps) {
		panic(fmt.Sprintf("mr: SetDesiredSlots for unknown tracker %d", tracker))
	}
	if maps < 1 || reduces < 1 {
		panic(fmt.Sprintf("mr: SetDesiredSlots non-positive targets %d/%d", maps, reduces))
	}
	if maps > jt.c.cfg.MaxMapSlots {
		maps = jt.c.cfg.MaxMapSlots
	}
	if reduces > jt.c.cfg.MaxReduceSlots {
		reduces = jt.c.cfg.MaxReduceSlots
	}
	jt.desiredMaps[tracker] = maps
	jt.desiredReduces[tracker] = reduces
	if tt := jt.c.trackers[tracker]; maps != tt.mapTarget || reduces != tt.reduceTarget {
		jt.c.clock.Unpark(tt.hbEvent)
	}
}

// assign hands tasks to every free slot on tt. Maps are assigned before
// reduces: under the YARN policy this implements map priority over the
// shared memory pool, under the slot policies the two pools are
// independent so the order is immaterial. Caller must hold a mutation
// scope.
func (jt *JobTracker) assign(tt *TaskTracker) {
	if !tt.schedulable() {
		return
	}
	for n := tt.freeMapSlots(); n > 0; n-- {
		m := jt.nextMap(tt)
		if m == nil {
			if jt.c.cfg.Speculation {
				if orig := jt.pickSpeculative(tt); orig != nil {
					jt.c.launchBackup(tt, orig)
					continue
				}
			}
			break
		}
		jt.c.launchMap(tt, m)
	}
	for n := tt.freeReduceSlots(); n > 0; n-- {
		r := jt.nextReduce(tt)
		if r == nil {
			break
		}
		jt.c.launchReduce(tt, r)
	}
}

// taskFreed is called when a slot is released mid-heartbeat. Hadoop
// 1.0.4 supports out-of-band heartbeats for exactly this purpose
// (mapreduce.tasktracker.outofband.heartbeat); assigning immediately
// keeps slots hot without waiting for the next periodic beat.
func (jt *JobTracker) taskFreed(tt *TaskTracker) {
	tt.traceDrainCheck()
	jt.assign(tt)
}

// jobOrder returns the jobs in scheduling order: submission order for
// FIFO, fewest-running-tasks-first for Fair (ties by submission order,
// keeping the sort stable and deterministic).
func (jt *JobTracker) jobOrder() []*Job {
	if jt.c.cfg.Scheduler == FIFO || len(jt.queue) < 2 {
		return jt.queue
	}
	order := append([]*Job(nil), jt.queue...)
	switch jt.c.cfg.Scheduler {
	case Fair:
		running := func(j *Job) int {
			n := 0
			for _, m := range j.maps {
				if m.state == TaskRunning {
					n++
				}
			}
			for _, r := range j.reduces {
				if r.state == TaskRunning {
					n++
				}
			}
			return n
		}
		sort.SliceStable(order, func(a, b int) bool { return running(order[a]) < running(order[b]) })
	case Priority:
		sort.SliceStable(order, func(a, b int) bool {
			return order[a].Spec.Priority > order[b].Spec.Priority
		})
	}
	return order
}

// nextMap picks the next pending map task for tt: jobs in scheduler
// order; within a job node-local first, then rack-local, then any.
// Jobs of tenants at their capacity cap are skipped.
func (jt *JobTracker) nextMap(tt *TaskTracker) *mapTask {
	for _, j := range jt.jobOrder() {
		if jt.c.tenantMapBlocked(j) {
			continue
		}
		pend := jt.pendingMaps[j]
		if len(pend) == 0 {
			continue
		}
		// Node-local.
		for _, m := range jt.pendingByHost[j].on(tt.id) {
			if m.state == TaskPending {
				jt.take(j, m)
				return m
			}
		}
		// Rack-local, then any, in pending order.
		var rackPick, anyPick *mapTask
		rack := jt.c.fs.Rack(tt.id)
		for _, m := range pend {
			if m.state != TaskPending {
				continue
			}
			if anyPick == nil {
				anyPick = m
			}
			if rackPick == nil {
				for _, h := range m.split.Hosts {
					if jt.c.fs.Rack(h) == rack {
						rackPick = m
						break
					}
				}
			}
			if rackPick != nil {
				break
			}
		}
		if rackPick != nil {
			jt.take(j, rackPick)
			return rackPick
		}
		if anyPick != nil {
			jt.take(j, anyPick)
			return anyPick
		}
	}
	return nil
}

// requeueMap returns an aborted or invalidated map task to the pending
// queue. The by-host index still references the task (pending state is
// checked at pick time), so only the flat list needs the entry back.
func (jt *JobTracker) requeueMap(j *Job, m *mapTask) {
	jt.pendingMaps[j] = append(jt.pendingMaps[j], m)
}

// take removes a map task from the pending structures.
func (jt *JobTracker) take(j *Job, m *mapTask) {
	pend := jt.pendingMaps[j]
	for i, p := range pend {
		if p == m {
			jt.pendingMaps[j] = append(pend[:i], pend[i+1:]...)
			break
		}
	}
	// pendingByHost entries are lazily skipped via the state check.
}

// nextReduce picks the next pending reduce task for tt, gated by the
// reduce slow-start threshold.
func (jt *JobTracker) nextReduce(tt *TaskTracker) *reduceTask {
	for _, j := range jt.jobOrder() {
		if jt.c.tenantReduceBlocked(j) {
			continue
		}
		if j.mapsDone < int(reduceSlowstart*float64(len(j.maps))) {
			continue
		}
		if len(j.maps) > 0 && j.mapsDone == 0 {
			continue
		}
		for _, r := range j.reduces {
			if r.state == TaskPending {
				return r
			}
		}
	}
	return nil
}

// reduceDemandExists reports whether some unfinished job is past its
// reduce slow-start with reduce tasks still pending — the condition
// under which YARN nodes reserve reduce-container memory.
func (jt *JobTracker) reduceDemandExists() bool {
	for _, j := range jt.queue {
		if len(j.maps) > 0 && j.mapsDone < int(reduceSlowstart*float64(len(j.maps))) {
			continue
		}
		if len(j.maps) > 0 && j.mapsDone == 0 {
			continue
		}
		for _, r := range j.reduces {
			if r.state == TaskPending {
				return true
			}
		}
	}
	return false
}

// PendingMapCount reports unassigned maps of unfinished jobs.
func (jt *JobTracker) PendingMapCount() int {
	n := 0
	for _, j := range jt.queue {
		n += len(jt.pendingMaps[j])
	}
	return n
}

// PendingReduceCount reports unassigned reduces of unfinished jobs.
func (jt *JobTracker) PendingReduceCount() int {
	n := 0
	for _, j := range jt.queue {
		for _, r := range j.reduces {
			if r.state == TaskPending {
				n++
			}
		}
	}
	return n
}
