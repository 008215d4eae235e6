package mr

import (
	"fmt"

	"smapreduce/internal/dfs"
	"smapreduce/internal/resource"
)

// launchMap starts map task m on tracker tt. Caller must hold a
// mutation scope and have verified a free slot.
func (c *Cluster) launchMap(tt *TaskTracker, m *mapTask) {
	if m.state != TaskPending {
		panic(fmt.Sprintf("mr: launching map %s/%d in state %v", m.job.Spec.Name, m.id, m.state))
	}
	prof := m.job.Spec.Profile
	jit := c.rng.Jitter(c.cfg.Jitter)
	m.state = TaskRunning
	m.tracker = tt
	m.started = c.clock.Now()
	m.preCombineMB = m.split.SizeMB * prof.MapOutputRatio * jit
	m.shuffleMB = m.preCombineMB * prof.CombineRatio
	if c.cfg.CompressShuffle {
		// shuffleMB is what crosses disk and network: compressed bytes.
		m.shuffleMB *= c.cfg.CompressionRatio
	}
	addRunning(&tt.runningMaps, m)
	c.tenantTaskStarted(m.job, true)
	if c.inv != nil && c.cfg.Policy != YARN {
		// Under YARN the memory pool, not mapTarget, bounds occupancy.
		c.inv.CheckMapLaunch(tt.id, len(tt.runningMaps), tt.mapTarget)
	}
	c.inv.CheckLaunchTracker(tt.id, tt.failed, tt.draining, tt.hbLost, tt.blacklisted, tt.probation)
	c.note(transition{kind: EvTaskStarted, job: m.job, task: "map", id: m.id, tracker: tt.id})
	c.traceMapBegin(tt, m)
	if m.job.Started < 0 {
		m.job.Started = c.clock.Now()
	}

	// Phase 0: stream the split (remotely if not local) while running
	// the map function. The phase completes when both finish.
	m.phase = 0
	m.pendingOps = 1
	work := m.split.SizeMB * prof.MapCPUPerMB * c.rng.Jitter(c.cfg.Jitter)
	m.computeOp = c.addNodeOp(tt.id, opID{kind: opMap, m: m}, work, resource.Activity{
		Kind:        resource.CPU,
		Remaining:   1, // work is tracked by the op; the activity provides the rate
		Weight:      1,
		Pressure:    m.job.mapPressure,
		FootprintMB: prof.MapFootprintMB,
	}, c.mapOpDoneFn)

	if host := c.nearestLiveHost(tt.id, m.split); host != tt.id {
		m.pendingOps++
		m.readOp = c.startFlow(opID{kind: opRead, m: m}, host, tt.id, m.split.SizeMB, 0, c.mapOpDoneFn)
		m.readFlow = m.readOp.flow
	}
}

// mapOpDone is the completion handler of every map phase op: it
// clears the task's reference to the op (and releases a read's flow),
// then advances the phase. The op's activity has already left the node.
func (c *Cluster) mapOpDone(op *fluidOp) {
	m := op.id.m
	switch op.id.kind {
	case opMap:
		m.computeOp = nil
	case opRead:
		c.fabric.Remove(m.readFlow)
		c.releaseFlow(m.readFlow)
		m.readFlow = nil
		m.readOp = nil
	case opSort:
		m.sortOp = nil
	case opSpill:
		m.spillOp = nil
	default:
		panic(fmt.Sprintf("mr: map op %q has no handler", op.id))
	}
	c.mapPhaseOpDone(m)
}

// nearestLiveHost is dfs.NearestHost restricted to live trackers; a
// split whose replicas are all on dead nodes is unrecoverable data
// loss, which the simulation treats as fatal.
func (c *Cluster) nearestLiveHost(node int, split dfs.Split) int {
	if h := c.fs.NearestHost(node, split); !c.trackers[h].failed {
		return h
	}
	rack := c.fs.Rack(node)
	best := -1
	for _, h := range split.Hosts {
		if c.trackers[h].failed {
			continue
		}
		if h == node {
			return h
		}
		if best < 0 || (c.fs.Rack(h) == rack && c.fs.Rack(best) != rack) {
			best = h
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("mr: all replicas of %s/%d are on failed nodes", split.File, split.Index))
	}
	return best
}

// mapPhaseOpDone advances the map task when all ops of its current
// phase have retired.
func (c *Cluster) mapPhaseOpDone(m *mapTask) {
	m.pendingOps--
	if m.pendingOps > 0 {
		return
	}
	switch m.phase {
	case 0:
		c.startMapSpill(m)
	case 1:
		c.commitMap(m)
	default:
		panic(fmt.Sprintf("mr: map %s/%d finished unknown phase %d", m.job.Spec.Name, m.id, m.phase))
	}
}

// startMapSpill begins the sort-and-spill (plus combine) phase.
func (c *Cluster) startMapSpill(m *mapTask) {
	prof := m.job.Spec.Profile
	tt := m.tracker
	m.phase = 1
	m.pendingOps = 0

	sortWork := m.preCombineMB * prof.SortCPUPerMB
	if c.cfg.CompressShuffle {
		sortWork += m.preCombineMB * prof.CombineRatio * c.cfg.CompressCPUPerMB
	}
	if sortWork > 0 {
		m.pendingOps++
		m.sortOp = c.addNodeOp(tt.id, opID{kind: opSort, m: m}, sortWork, resource.Activity{
			Kind:        resource.CPU,
			Remaining:   1,
			Weight:      1,
			Pressure:    m.job.mapPressure,
			FootprintMB: prof.MapFootprintMB,
		}, c.mapOpDoneFn)
	}
	if m.preCombineMB > 0 {
		m.pendingOps++
		m.spillOp = c.addNodeOp(tt.id, opID{kind: opSpill, m: m}, m.preCombineMB, resource.Activity{
			Kind:      resource.Disk,
			Remaining: 1,
			Weight:    0.2, // spill writers are mostly I/O wait
		}, c.mapOpDoneFn)
	}
	if m.pendingOps == 0 {
		// Jobs that emit no map output (pure filters with no matches)
		// commit immediately.
		c.commitMap(m)
	}
}

// commitMap finalises a map attempt: frees the slot, resolves any
// speculative race, publishes the logical task's output for shuffling
// and fires the barrier when it is the last map.
func (c *Cluster) commitMap(m *mapTask) {
	tt := m.tracker
	logical := m.original()
	m.state = TaskDone
	removeRunning(&tt.runningMaps, m)
	c.tenantTaskStopped(m.job, true)
	if !c.resolveSpeculation(m) {
		// The sibling attempt committed first; this one is a duplicate.
		c.traceMapEnd(m, "duplicate")
		c.jt.taskFreed(tt)
		return
	}
	c.traceMapEnd(m, "done")

	// Record the winning attempt's results on the logical task, which
	// is what reducers, the barrier and failure recovery track.
	logical.state = TaskDone
	logical.outputHost = tt.id
	logical.outputLost = false // fresh commit supersedes any lost predecessor
	logical.finished = c.clock.Now()
	if logical.started == 0 && m.started > 0 {
		logical.started = m.started
	}
	logical.preCombineMB = m.preCombineMB
	logical.shuffleMB = m.shuffleMB
	j := logical.job
	j.mapsDone++
	j.ShuffledMB += logical.shuffleMB
	tt.mapInputDoneMB += logical.split.SizeMB
	tt.mapOutputDoneMB += logical.shuffleMB

	// Publish the output: each reducer owns its partition's share (the
	// weight vector is uniform unless the job declares skew). After a
	// re-execution, reducers that already received this map's output
	// (durable at their end) are skipped.
	if logical.shuffleMB > 0 && len(j.reduces) > 0 {
		for _, r := range j.reduces {
			if !r.got[logical.id] {
				c.deliverShare(r, tt.id, logical.shuffleMB*j.partWeights[r.partition], logical)
			}
		}
	}

	c.note(transition{kind: EvTaskDone, job: j, task: "map", id: logical.id, tracker: tt.id})
	if j.BarrierReached() {
		j.BarrierAt = c.clock.Now()
		c.note(transition{kind: EvBarrier, job: j, tracker: -1})
		// Reducers blocked only on the barrier may now advance.
		for _, r := range j.reduces {
			if r.state == TaskRunning && r.phase == 0 {
				c.checkShuffleDone(r)
			}
		}
	}
	c.jt.taskFreed(tt)
	c.checkJobCompletion(j)
}

// deliverShare credits one map output partition share to a reducer.
// Local shares (map output on the reducer's own node) are read from
// disk during the merge and never cross the network, so they count as
// fetched immediately; remote shares either top up a live flow or wait
// in the pending queue for a free fetcher.
func (c *Cluster) deliverShare(r *reduceTask, src int, mb float64, m *mapTask) {
	if r.state == TaskDone {
		panic(fmt.Sprintf("mr: delivering to finished reducer %s/%d", r.job.Spec.Name, r.partition))
	}
	if r.state == TaskRunning && r.tracker.id == src {
		r.fetchedMB += mb
		r.got[m.id] = true
		return
	}
	s := &r.srcs[src]
	s.maps = append(s.maps, m)
	if s.flow != nil {
		// Only a running reducer has live flows.
		c.topUpOp(s.op, mb)
		c.fabric.TopUp(s.flow, mb)
		return
	}
	s.pendingMB += mb
	if r.state == TaskRunning {
		c.activateFetches(r)
	}
	// Not running yet: the share waits for launch time.
}

// activateFetches starts transfers from pending sources until the
// reducer's fetcher threads are all busy.
func (c *Cluster) activateFetches(r *reduceTask) {
	for src := 0; r.nflows < c.cfg.Fetchers; src++ {
		if src >= c.cfg.Workers {
			return
		}
		s := &r.srcs[src]
		mb := s.pendingMB
		if mb <= 0 || s.flow != nil {
			continue
		}
		s.pendingMB = 0
		c.startFetch(r, src, mb)
	}
}

// startFetch opens one capped shuffle flow from src to the reducer,
// covering the map outputs queued on the source.
func (c *Cluster) startFetch(r *reduceTask, src int, mb float64) {
	s := &r.srcs[src]
	s.op = c.startFlow(opID{kind: opShuffle, r: r, peer: src}, src, r.tracker.id, mb, c.cfg.PerFetchMBps, c.fetchDoneFn)
	s.flow = s.op.flow
	r.nflows++
}

// fetchDone is the completion handler of every shuffle fetch: the
// source's bytes have landed, so the maps they cover are received and
// the next queued source may start.
func (c *Cluster) fetchDone(op *fluidOp) {
	r, src := op.id.r, op.id.peer
	s := &r.srcs[src]
	flow := s.flow
	c.fabric.Remove(flow)
	s.flow, s.op = nil, nil
	r.nflows--
	for _, m := range s.maps {
		r.got[m.id] = true
	}
	s.maps = s.maps[:0]
	// total includes post-launch top-ups, so read it from the op
	// (still intact inside onDone) rather than the launch-time mb.
	moved := op.total
	r.fetchedMB += moved
	r.tracker.shuffleDoneMB += moved
	c.releaseFlow(flow)
	c.activateFetches(r)
	c.checkShuffleDone(r)
}

// launchReduce starts reduce task r on tracker tt.
func (c *Cluster) launchReduce(tt *TaskTracker, r *reduceTask) {
	if r.state != TaskPending {
		panic(fmt.Sprintf("mr: launching reduce %s/%d in state %v", r.job.Spec.Name, r.partition, r.state))
	}
	prof := r.job.Spec.Profile
	r.state = TaskRunning
	r.tracker = tt
	r.phase = 0
	r.started = c.clock.Now()
	addRunning(&tt.runningReduces, r)
	c.tenantTaskStarted(r.job, false)
	if c.inv != nil && c.cfg.Policy != YARN {
		c.inv.CheckReduceLaunch(tt.id, len(tt.runningReduces), tt.reduceTarget)
	}
	c.inv.CheckLaunchTracker(tt.id, tt.failed, tt.draining, tt.hbLost, tt.blacklisted, tt.probation)
	c.note(transition{kind: EvTaskStarted, job: r.job, task: "reduce", id: r.partition, tracker: tt.id})
	c.traceReduceBegin(tt, r)
	if r.job.Started < 0 {
		r.job.Started = c.clock.Now()
	}

	// The shuffle infrastructure occupies the node: copier threads and
	// merge buffers, modelled as a phantom activity.
	r.phantom = resource.Activity{
		Kind:        resource.Phantom,
		Weight:      prof.FetcherWeight * float64(c.cfg.Fetchers),
		Pressure:    prof.FetcherPressure,
		FootprintMB: prof.ReduceFootprint,
	}
	tt.node.Add(&r.phantom)

	// Any shares committed before launch: local ones are already on
	// disk here, remote ones start fetching now.
	if s := &r.srcs[tt.id]; s.pendingMB > 0 || len(s.maps) > 0 {
		for _, m := range s.maps {
			r.got[m.id] = true
		}
		s.maps = s.maps[:0]
		r.fetchedMB += s.pendingMB
		s.pendingMB = 0
	}
	c.activateFetches(r)
	c.checkShuffleDone(r)
}

// checkShuffleDone advances a shuffling reducer past the barrier once
// every map has committed and every byte has been fetched.
func (c *Cluster) checkShuffleDone(r *reduceTask) {
	if r.state != TaskRunning || r.phase != 0 {
		return
	}
	if !r.job.BarrierReached() || !r.shuffleSettled() {
		return
	}
	r.tracker.node.Remove(&r.phantom)
	c.startReduceSort(r)
}

// startReduceSort begins the reduce-side merge sort.
func (c *Cluster) startReduceSort(r *reduceTask) {
	prof := r.job.Spec.Profile
	tt := r.tracker
	r.phase = 1
	r.pendingOps = 0

	// With compression, fetchedMB is compressed bytes; merge and the
	// reduce function operate on the uncompressed volume.
	uncompressed := r.fetchedMB
	if c.cfg.CompressShuffle {
		uncompressed = r.fetchedMB / c.cfg.CompressionRatio
	}
	mergeWork := uncompressed * prof.MergeCPUPerMB
	if c.cfg.CompressShuffle {
		mergeWork += uncompressed * c.cfg.DecompressCPUPerMB
	}
	if mergeWork > 0 {
		r.pendingOps++
		r.sortOp = c.addNodeOp(tt.id, opID{kind: opRSort, r: r}, mergeWork, resource.Activity{
			Kind:        resource.CPU,
			Remaining:   1,
			Weight:      1,
			Pressure:    r.job.mapPressure,
			FootprintMB: prof.ReduceFootprint,
		}, c.reduceOpDoneFn)
	}
	if r.fetchedMB > 0 {
		r.pendingOps++
		r.mergeOp = c.addNodeOp(tt.id, opID{kind: opRMerge, r: r}, r.fetchedMB, resource.Activity{
			Kind:      resource.Disk,
			Remaining: 1,
			Weight:    0.2,
		}, c.reduceOpDoneFn)
	}
	if r.pendingOps == 0 {
		c.startReduceCompute(r)
	}
}

// reduceOpDone is the completion handler of the reducer's sort and
// reduce phase ops: it clears the task's reference to the op, then
// advances the phase. Replication pipelines carry their own handlers.
func (c *Cluster) reduceOpDone(op *fluidOp) {
	r := op.id.r
	switch op.id.kind {
	case opRSort:
		r.sortOp = nil
	case opRMerge:
		r.mergeOp = nil
	case opReduce:
		r.redOp = nil
	case opROut:
		r.writeOp = nil
	default:
		panic(fmt.Sprintf("mr: reduce op %q has no handler", op.id))
	}
	c.reducePhaseOpDone(r)
}

// reducePhaseOpDone advances the reducer when its phase ops retire.
func (c *Cluster) reducePhaseOpDone(r *reduceTask) {
	r.pendingOps--
	if r.pendingOps > 0 {
		return
	}
	switch r.phase {
	case 1:
		c.startReduceCompute(r)
	case 2:
		c.finishReduce(r)
	default:
		panic(fmt.Sprintf("mr: reduce %s/%d finished unknown phase %d", r.job.Spec.Name, r.partition, r.phase))
	}
}

// startReduceCompute begins the user reduce function and output write.
func (c *Cluster) startReduceCompute(r *reduceTask) {
	prof := r.job.Spec.Profile
	tt := r.tracker
	r.phase = 2
	r.pendingOps = 0

	redVolume := r.fetchedMB
	if c.cfg.CompressShuffle {
		redVolume = r.fetchedMB / c.cfg.CompressionRatio
	}
	redWork := redVolume * prof.ReduceCPUPerMB * c.rng.Jitter(c.cfg.Jitter)
	if redWork > 0 {
		r.pendingOps++
		r.redOp = c.addNodeOp(tt.id, opID{kind: opReduce, r: r}, redWork, resource.Activity{
			Kind:        resource.CPU,
			Remaining:   1,
			Weight:      1,
			Pressure:    r.job.mapPressure,
			FootprintMB: prof.ReduceFootprint,
		}, c.reduceOpDoneFn)
	}
	outMB := redVolume * prof.OutputRatio
	if outMB > 0 {
		r.pendingOps++
		r.writeOp = c.addNodeOp(tt.id, opID{kind: opROut, r: r}, outMB, resource.Activity{
			Kind:      resource.Disk,
			Remaining: 1,
			Weight:    0.2,
		}, c.reduceOpDoneFn)
		// HDFS write pipeline: each extra replica streams the output
		// over the fabric to another live node and lands on its disk.
		// The pipeline is fluid (not store-and-forward), so each hop is
		// an independent flow+disk pair gating task completion.
		for extra := 1; extra < c.cfg.OutputReplication; extra++ {
			target := c.pickReplicaTarget(tt.id, extra)
			if target < 0 {
				break // not enough live nodes; degrade like HDFS does
			}
			r.pendingOps++
			// The effective pipeline rate is min(network, remote disk);
			// model it as the flow gated by the remote disk via a cap
			// refresh is overkill — run the two ops in series-free
			// parallel and require both, which matches a fluid pipe
			// whose slower stage dominates.
			//
			// Each completion clears its own entry in the parallel pipe
			// slices (slot indices captured here), so teardown after a
			// failure only sees the pieces that are still live.
			flowSlot := len(r.pipeFlows)
			opSlot := len(r.pipeOps)
			flowDone := false
			diskDone := false
			finish := func() {
				if flowDone && diskDone {
					c.reducePhaseOpDone(r)
				}
			}
			fOp := c.startFlow(opID{kind: opRepl, r: r, peer: target}, tt.id, target, outMB, 0, func(*fluidOp) {
				flow := r.pipeFlows[flowSlot]
				c.fabric.Remove(flow)
				r.pipeFlows[flowSlot] = nil
				r.pipeOps[opSlot] = nil
				c.releaseFlow(flow)
				flowDone = true
				finish()
			})
			remoteDisk := resource.Activity{Kind: resource.Disk, Remaining: 1, Weight: 0.2}
			dOp := c.addNodeOp(target, opID{kind: opReplDisk, r: r, peer: target}, outMB, remoteDisk, func(*fluidOp) {
				r.pipeOps[opSlot+1] = nil
				diskDone = true
				finish()
			})
			// Both ops gate completion but count as ONE pendingOp: the
			// pipeline finishes when its slower stage drains. Track the
			// pieces so a writer-side failure can tear them down (the
			// remote disk write leaves its node with its op).
			r.pipeFlows = append(r.pipeFlows, fOp.flow)
			r.pipeOps = append(r.pipeOps, fOp, dOp)
		}
	}
	if r.pendingOps == 0 {
		c.finishReduce(r)
	}
}

// pickReplicaTarget chooses the extra-th replica node for an output
// written at node src: the HDFS policy's spirit — first extra replica
// off-node (and off-rack when possible), deterministic per (src, extra).
func (c *Cluster) pickReplicaTarget(src, extra int) int {
	n := c.cfg.Workers
	for probe := 1; probe < n; probe++ {
		cand := (src + extra*7 + probe - 1) % n
		if cand != src && !c.trackers[cand].failed {
			return cand
		}
	}
	return -1
}

// finishReduce retires the task and checks the job for completion.
func (c *Cluster) finishReduce(r *reduceTask) {
	tt := r.tracker
	r.state = TaskDone
	r.finished = c.clock.Now()
	removeRunning(&tt.runningReduces, r)
	c.tenantTaskStopped(r.job, false)
	r.job.reducesDone++
	c.traceReduceEnd(r, "done")
	c.note(transition{kind: EvTaskDone, job: r.job, task: "reduce", id: r.partition, tracker: tt.id})
	c.jt.taskFreed(tt)
	c.checkJobCompletion(r.job)
}

// checkJobCompletion records completion milestones and may stop the
// simulation once the last job drains.
func (c *Cluster) checkJobCompletion(j *Job) {
	if !j.Finished() || j.FinishedAt >= 0 {
		return
	}
	j.FinishedAt = c.clock.Now()
	j.Progress.Sample(c.clock.Now(), 100, 100)
	c.traceJobEnd(j)
	c.note(transition{kind: EvJobFinished, job: j, tracker: -1})
	c.jt.retire(j)
	c.activeJobs--
	if c.activeJobs == 0 && c.jobsToSubmit == 0 {
		c.shutdown()
	}
}
