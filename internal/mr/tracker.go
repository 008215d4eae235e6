package mr

import (
	"fmt"
	"slices"
	"sort"

	"smapreduce/internal/resource"
	"smapreduce/internal/sim"
	"smapreduce/internal/stats"
	"smapreduce/internal/trace"
)

// TaskTracker is one worker daemon: it owns the node's working slots,
// launches tasks into them, reports statistics to the job tracker on
// every heartbeat, and applies slot-change commands lazily.
type TaskTracker struct {
	c    *Cluster
	id   int
	node *resource.Node

	// Slot targets. The lazy changer never kills a running task: when a
	// target drops below the running count, launches simply stop until
	// enough tasks finish on their own (§III-D).
	mapTarget    int
	reduceTarget int

	// Occupied slots, insertion-ordered with swap-remove (see
	// addRunning). Every reader either only counts them or sorts or
	// sums order-independently (sumAscending), so the order that
	// removals leave behind is never observable.
	runningMaps    []*mapTask
	runningReduces []*reduceTask

	// Cumulative counters and EWMA rate estimates sampled at heartbeats.
	mapInputDoneMB  float64
	mapOutputDoneMB float64
	shuffleDoneMB   float64

	mapInputRate  *stats.EWMA // MB/s of map input processed
	mapOutputRate *stats.EWMA // MB/s of shuffle-bound map output produced
	shuffleRate   *stats.EWMA // MB/s of shuffle bytes received

	failed bool

	// Heartbeat-loss fault state (internal/chaos): a silent tracker is
	// blacklisted after blacklistTimeout and serves an exponentially
	// backed-off probation once its heartbeats resume. Running tasks
	// keep executing throughout — only new assignment is gated.
	hbLost         bool
	blacklisted    bool
	probation      bool
	blacklistCount int // incidents, drives the probation backoff
	hbResume       sim.EventRef
	blacklistCheck sim.EventRef
	probationEnd   sim.EventRef

	lastHB            float64
	lastMapInputMB    float64
	lastMapOutputMB   float64
	lastShuffleMB     float64
	hbEvent           sim.EventRef
	disturbance       *resource.Activity // &disturbAct while a slot change perturbs the node
	disturbanceExpiry sim.EventRef

	// The slot-change disturbance and its expiry callback, built at the
	// tracker's first slot change and reused by every later one.
	disturbAct  resource.Activity
	stabilizeFn func()

	// Heartbeat machinery, bound once so the periodic re-arm allocates
	// nothing: the event label, the clock callback, the Mutate body it
	// wraps, and (bound at the first park) the rate sampler a parked
	// chain's beats run in its place.
	hbLabel  string
	hbFn     func()
	hbTickFn func()
	sampleFn func()

	// Fault-event labels, formatted lazily on the first incident and
	// cached, so mid-run fault scheduling never pays fmt.Sprintf.
	blacklistLabel string
	hbResumeLabel  string
	probationLabel string

	// scratch backs the inFlight* summations between heartbeats.
	scratch []float64

	drainSpan trace.SpanRef // open lazy-drain span when tracing
}

func newTaskTracker(c *Cluster, id int, node *resource.Node) *TaskTracker {
	tt := &TaskTracker{
		c:             c,
		id:            id,
		node:          node,
		mapTarget:     c.cfg.MapSlots,
		reduceTarget:  c.cfg.ReduceSlots,
		mapInputRate:  stats.NewEWMA(0.3),
		mapOutputRate: stats.NewEWMA(0.3),
		shuffleRate:   stats.NewEWMA(0.3),
		hbLabel:       fmt.Sprintf("hb tt%d", id),
	}
	tt.hbFn = tt.heartbeat
	tt.hbTickFn = tt.hbTick
	return tt
}

// runningTask is a task attempt that records its own position in its
// tracker's running list.
type runningTask interface {
	*mapTask | *reduceTask
	slot() *int
}

func (m *mapTask) slot() *int    { return &m.runSlot }
func (r *reduceTask) slot() *int { return &r.runSlot }

// addRunning appends t to a tracker's running list.
func addRunning[T runningTask](list *[]T, t T) {
	*t.slot() = len(*list)
	*list = append(*list, t)
}

// removeRunning swap-removes t from a tracker's running list; removing
// a task that is not on the list is a no-op.
func removeRunning[T runningTask](list *[]T, t T) {
	l := *list
	i := *t.slot()
	if i >= len(l) || l[i] != t {
		return
	}
	last := len(l) - 1
	l[i] = l[last]
	*l[i].slot() = i
	var zero T
	l[last] = zero
	*list = l[:last]
}

// lazyLabel formats a per-id event label on first use and caches it in
// *slot, so repeat incidents schedule with zero formatting.
func lazyLabel(slot *string, format string, id int) string {
	if *slot == "" {
		*slot = fmt.Sprintf(format, id)
	}
	return *slot
}

// ID returns the tracker's node ID.
func (tt *TaskTracker) ID() int { return tt.id }

// MapSlots returns the current map slot target.
func (tt *TaskTracker) MapSlots() int { return tt.mapTarget }

// ReduceSlots returns the current reduce slot target.
func (tt *TaskTracker) ReduceSlots() int { return tt.reduceTarget }

// RunningMaps returns the number of occupied map slots.
func (tt *TaskTracker) RunningMaps() int { return len(tt.runningMaps) }

// RunningReduces returns the number of occupied reduce slots.
func (tt *TaskTracker) RunningReduces() int { return len(tt.runningReduces) }

// Failed reports whether the tracker has been killed by fault injection.
func (tt *TaskTracker) Failed() bool { return tt.failed }

// HeartbeatLost reports whether the tracker is inside an injected
// heartbeat-loss window.
func (tt *TaskTracker) HeartbeatLost() bool { return tt.hbLost }

// Blacklisted reports whether the job tracker has blacklisted this
// tracker for prolonged heartbeat silence.
func (tt *TaskTracker) Blacklisted() bool { return tt.blacklisted }

// OnProbation reports whether the tracker is serving its post-blacklist
// probation.
func (tt *TaskTracker) OnProbation() bool { return tt.probation }

// schedulable reports whether the job tracker may hand this tracker new
// work. Failed, silent, blacklisted and probation trackers all keep running what they have but receive nothing new.
func (tt *TaskTracker) schedulable() bool {
	return !tt.failed && !tt.hbLost && !tt.blacklisted && !tt.probation
}

// freeMapSlots reports launchable map slots under the active policy.
// Under YARN, once the head job passes its reduce slow-start the node
// reserves the configured reduce-container share so the reduce ramp is
// not starved by map priority (the AM would otherwise never see its
// reduce requests granted); before that point maps may fill the whole
// memory pool — the early map burst that distinguishes YARN from V1.
func (tt *TaskTracker) freeMapSlots() int {
	if tt.c.cfg.Policy == YARN {
		mem := tt.freeMemMB()
		if tt.c.jt.reduceDemandExists() {
			reserve := float64(tt.c.cfg.ReduceSlots-len(tt.runningReduces)) * reduceContainerMB
			if reserve > 0 {
				mem -= reserve
			}
		}
		free := int(mem / mapContainerMB)
		if free < 0 {
			return 0
		}
		return free
	}
	free := tt.mapTarget - len(tt.runningMaps)
	if free < 0 {
		return 0
	}
	return free
}

// freeReduceSlots reports launchable reduce slots under the active
// policy. Under YARN this must be called after map assignment so maps
// keep their priority claim on the memory pool.
func (tt *TaskTracker) freeReduceSlots() int {
	if tt.c.cfg.Policy == YARN {
		free := int(tt.freeMemMB() / reduceContainerMB)
		if free < 0 {
			return 0
		}
		return free
	}
	free := tt.reduceTarget - len(tt.runningReduces)
	if free < 0 {
		return 0
	}
	return free
}

// freeMemMB is the YARN policy's unallocated container memory.
func (tt *TaskTracker) freeMemMB() float64 {
	capMB := float64(tt.c.cfg.MapSlots)*mapContainerMB +
		float64(tt.c.cfg.ReduceSlots)*reduceContainerMB
	used := float64(len(tt.runningMaps))*mapContainerMB +
		float64(len(tt.runningReduces))*reduceContainerMB
	return capMB - used
}

// setTargets applies a slot-change command. The disturbance models the
// transient rate dip the paper observes right after a change; the lazy
// semantics are inherent in how freeMapSlots treats excess runners.
func (tt *TaskTracker) setTargets(maps, reduces int) {
	if maps == tt.mapTarget && reduces == tt.reduceTarget {
		return
	}
	if maps <= 0 || reduces <= 0 {
		panic(fmt.Sprintf("mr: tracker %d given non-positive slot targets %d/%d", tt.id, maps, reduces))
	}
	tt.c.inv.CheckSlotTargets(tt.id, maps, reduces, tt.c.cfg.MaxMapSlots, tt.c.cfg.MaxReduceSlots)
	tt.mapTarget = maps
	tt.reduceTarget = reduces
	tt.c.note(transition{kind: EvSlotChange, tracker: tt.id, x: float64(maps), y: float64(reduces)})
	tt.applyDisturbance()
	if tt.c.cfg.EagerSlotChange {
		tt.killSurplusMaps()
	}
	tt.traceDrainCheck()
}

// killSurplusMaps implements the eager (non-paper) slot-shrink policy:
// the newest running map attempts beyond the target are killed and
// re-queued immediately, paying the re-execution cost the lazy policy
// avoids (§III-D). Reduce tasks are never killed — re-running a
// reducer forfeits its fetched data, which no policy would choose.
func (tt *TaskTracker) killSurplusMaps() {
	surplus := len(tt.runningMaps) - tt.mapTarget
	if surplus <= 0 {
		return
	}
	victims := slices.Clone(tt.runningMaps)
	// Kill the least-progressed attempts first (cheapest to redo),
	// breaking ties by the total attempt order so the victim sequence
	// is pinned even between attempts of the same logical task.
	sort.Slice(victims, func(i, k int) bool {
		pi, pk := victims[i].progressFraction(), victims[k].progressFraction()
		if pi != pk {
			return pi < pk
		}
		return mapAttemptLess(victims[i], victims[k])
	})
	for _, m := range victims[:surplus] {
		tt.c.abortMap(m)
	}
}

// applyDisturbance injects stabilizeTime seconds of extra pressure.
func (tt *TaskTracker) applyDisturbance() {
	c := tt.c
	if tt.disturbance != nil {
		// Already perturbed: extend the window.
		c.clock.Cancel(tt.disturbanceExpiry)
	} else {
		if tt.stabilizeFn == nil {
			tt.disturbAct = resource.Activity{Kind: resource.Phantom, Pressure: slotChangePressure}
			tt.stabilizeFn = func() { c.Mutate(tt.endDisturbance) }
		}
		tt.disturbance = &tt.disturbAct
		tt.node.Add(tt.disturbance)
	}
	tt.disturbanceExpiry = c.clock.After(stabilizeTime, "stabilize", tt.stabilizeFn)
}

// endDisturbance lifts the slot-change pressure, if any.
func (tt *TaskTracker) endDisturbance() {
	if tt.disturbance != nil {
		tt.node.Remove(tt.disturbance)
		tt.disturbance = nil
	}
}

// heartbeat is the tracker's periodic exchange with the job tracker:
// sample statistics, pick up slot commands, and receive new tasks.
// The clock's periodic fast path re-arms the chain in place after this
// returns (same hbEvent ref for the chain's whole life), and the
// Mutate body is a cached closure, so a heartbeat allocates nothing.
//
// A quiet beat (see quiet) can change nothing but the rate windows: it
// samples them and parks the chain in the clock's lane, whose beats
// run sampleRates alone — three zero observations and the anchor
// update — at the places the full beats would take. Every source that
// could end the quiet unparks the chain (wakeTrackers); reference mode
// never parks.
func (tt *TaskTracker) heartbeat() {
	c := tt.c
	if !c.cfg.Reference && tt.quiet() {
		tt.sampleRates()
		if tt.sampleFn == nil {
			tt.sampleFn = tt.sampleRates
		}
		c.clock.Park(tt.hbEvent, tt.sampleFn)
		return
	}
	c.Mutate(tt.hbTickFn)
}

// quiet reports whether a full heartbeat would only sample rates, and
// would keep doing so until a wake source fires:
//   - no task runs here, so the in-flight sums are 0, the done
//     counters cannot move, and each later sample observes exactly 0;
//   - the job queue is empty, so assignment finds nothing;
//   - under Dynamic the desired slots equal the targets, so setTargets
//     does nothing;
//   - no op is dirty or loose, so the Mutate scope's refresh does
//     nothing.
//
// Admission and a slot-target change unpark (JobTracker.admit and
// SetDesiredSlots); faults and recovery cancel or re-arm the chain.
func (tt *TaskTracker) quiet() bool {
	c := tt.c
	if len(tt.runningMaps) > 0 || len(tt.runningReduces) > 0 || len(c.jt.queue) > 0 ||
		len(c.dirtyOps) > 0 || len(c.looseOps) > 0 {
		return false
	}
	if c.cfg.Policy == Dynamic {
		maps, reduces := c.jt.desiredSlots(tt.id)
		return maps == tt.mapTarget && reduces == tt.reduceTarget
	}
	return true
}

// wakeTrackers unparks every tracker's heartbeat chain.
func (c *Cluster) wakeTrackers() {
	for _, tt := range c.trackers {
		c.clock.Unpark(tt.hbEvent)
	}
}

// hbTick is the heartbeat's mutation body.
func (tt *TaskTracker) hbTick() {
	c := tt.c
	tt.sampleRates()

	// Heartbeat response: slot commands decided by the slot manager.
	if c.cfg.Policy == Dynamic {
		maps, reduces := c.jt.desiredSlots(tt.id)
		tt.setTargets(maps, reduces)
	}

	// Task assignment for free slots.
	c.jt.assign(tt)
}

// sampleRates observes the window rates since the previous heartbeat;
// each total is also the next anchor. Op fractions settle lazily on
// read.
func (tt *TaskTracker) sampleRates() {
	now := tt.c.clock.Now()
	// With nothing in flight a sum is exactly 0, and adding it leaves
	// the counter's bits unchanged (counters are never -0): skip it.
	mapInMB, mapOutMB, shuffleMB := tt.mapInputDoneMB, tt.mapOutputDoneMB, tt.shuffleDoneMB
	if len(tt.runningMaps) > 0 {
		mapInMB += tt.inFlightMapInputMB()
		mapOutMB += tt.inFlightMapOutputMB()
	}
	if len(tt.runningReduces) > 0 {
		shuffleMB += tt.inFlightShuffleMB()
	}
	if dt := now - tt.lastHB; dt > 0 {
		tt.mapInputRate.Observe((mapInMB - tt.lastMapInputMB) / dt)
		tt.mapOutputRate.Observe((mapOutMB - tt.lastMapOutputMB) / dt)
		tt.shuffleRate.Observe((shuffleMB - tt.lastShuffleMB) / dt)
	}
	tt.lastHB = now
	tt.lastMapInputMB = mapInMB
	tt.lastMapOutputMB = mapOutMB
	tt.lastShuffleMB = shuffleMB
}

// inFlightMapInputMB estimates input MB consumed by still-running map
// tasks, so window rates do not jump at task boundaries. The value
// slices behind the inFlight* estimators are tracker-owned scratch,
// reused call to call.
func (tt *TaskTracker) inFlightMapInputMB() float64 {
	vals := tt.scratch[:0]
	for _, m := range tt.runningMaps {
		if m.phase == 0 && m.computeOp != nil {
			vals = append(vals, m.split.SizeMB*m.computeOp.fraction())
		} else if m.phase > 0 {
			vals = append(vals, m.split.SizeMB)
		}
	}
	total := sumAscending(vals)
	tt.scratch = vals[:0]
	return total
}

// inFlightMapOutputMB mirrors inFlightMapInputMB for produced output.
func (tt *TaskTracker) inFlightMapOutputMB() float64 {
	vals := tt.scratch[:0]
	for _, m := range tt.runningMaps {
		if m.phase == 0 && m.computeOp != nil {
			vals = append(vals, m.shuffleMB*m.computeOp.fraction())
		} else if m.phase > 0 {
			vals = append(vals, m.shuffleMB)
		}
	}
	total := sumAscending(vals)
	tt.scratch = vals[:0]
	return total
}

// inFlightShuffleMB counts bytes moved by still-active fetch flows.
func (tt *TaskTracker) inFlightShuffleMB() float64 {
	vals := tt.scratch[:0]
	for _, r := range tt.runningReduces {
		for i := range r.srcs {
			if op := r.srcs[i].op; op != nil {
				vals = append(vals, op.movedMB())
			}
		}
	}
	total := sumAscending(vals)
	tt.scratch = vals[:0]
	return total
}

// sumAscending adds the values smallest-first, making the float result
// independent of the running lists' order. The full-precision sums feed the
// audit records and trace export, which must be bit-reproducible
// run-to-run.
func sumAscending(vals []float64) float64 {
	if len(vals) > 1 {
		slices.Sort(vals)
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// stop cancels the tracker's periodic machinery at simulation shutdown
// (and on crash: a failed tracker's pending fault timers must not fire
// against its carcass).
func (tt *TaskTracker) stop() {
	tt.c.clock.Cancel(tt.hbEvent)
	tt.c.clock.Cancel(tt.disturbanceExpiry)
	tt.c.clock.Cancel(tt.hbResume)
	tt.c.clock.Cancel(tt.blacklistCheck)
	tt.c.clock.Cancel(tt.probationEnd)
	tt.hbResume, tt.blacklistCheck, tt.probationEnd = 0, 0, 0
	tt.endDisturbance()
}
