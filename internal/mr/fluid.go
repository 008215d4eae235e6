package mr

import (
	"fmt"
	"math"
	"slices"

	"smapreduce/internal/netsim"
	"smapreduce/internal/resource"
	"smapreduce/internal/sim"
)

// fluidOp is one piece of rate-driven work: a CPU phase, a disk phase
// or a network flow. Between membership events its rate is constant, so
// progress integrates linearly and completion can be scheduled exactly.
//
// Ops are settled lazily: remaining work is integrated forward only
// when the op is read (fraction, movedMB), topped up, refreshed after a
// rate change, or completed. Because lastRate is updated at every rate
// change, integrating a long untouched span in one step is exact up to
// float rounding.
//
// Ops are pool-recycled (see releaseOp): a retired op goes back to the
// cluster's free list with its fields reset, and its two completion
// closures — allocated once per object — ride along, so steady-state
// task churn creates no ops and no closures.
type fluidOp struct {
	id         opID    // what the op does, formatted only on demand
	total      float64 // initial work, for progress fractions
	remaining  float64 // outstanding work as of lastSettle
	lastRate   float64
	lastSettle float64
	event      sim.EventRef
	// onDone runs inside the mutation scope that retired the op, with
	// the op still intact. Task ops share handlers bound once per
	// cluster, which find their task through id.
	onDone   func(*fluidOp)
	handler  func() // cached completion closure, reused across reschedules
	complete func() // cached Mutate body for handler, allocated once

	// Rate source: a fabric flow, a node activity (nodeID >= 0) or a
	// closure (loose ops, tests). A node-bound op owns its activity:
	// act is registered on the node for exactly as long as the op is
	// bound, and is recycled with the op, so task phases allocate no
	// activities and tear down with the op.
	rateFn func() float64
	act    resource.Activity
	flow   *netsim.Flow

	// Dirty-tracking state. An op is bound to the rate source that can
	// change its rate — a node's activity set (nodeID >= 0), a fabric
	// flow, or neither ("loose", arbitrary rateFn closures used by
	// tests) — and is marked dirty when that source changes. Loose ops
	// have no observable source, so they refresh on every Mutate.
	c         *Cluster
	pos       int // position in c.ops; -1 once removed
	dirty     bool
	nodeID    int // node binding; -1 when not node-bound
	nodeSlot  int // position in c.nodeOps[nodeID]
	loose     bool
	looseSlot int // position in c.looseOps
}

// currentRate reads the op's rate from its bound source.
func (o *fluidOp) currentRate() float64 {
	switch {
	case o.flow != nil:
		return o.flow.Rate()
	case o.nodeID >= 0:
		return o.act.Rate()
	default:
		return o.rateFn()
	}
}

// fraction reports completed work in [0,1], settling first so the
// value is current even between refreshes.
func (o *fluidOp) fraction() float64 {
	if o.c != nil && o.c.hasOp(o) {
		o.c.settleOp(o)
	}
	if o.total <= 0 {
		return 1
	}
	f := 1 - o.remaining/o.total
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// movedMB reports work completed so far in the op's own unit, settled
// to the current instant.
func (o *fluidOp) movedMB() float64 {
	if o.c != nil && o.c.hasOp(o) {
		o.c.settleOp(o)
	}
	return o.total - o.remaining
}

const opEpsilon = 1e-9

// Mutate brackets a state change to the fluid system. fn may add or
// remove activities, flows and ops, and may nest further Mutate calls;
// at the outermost exit every op whose rate inputs were touched is
// settled at its pre-change rate and refreshed (rates re-resolved,
// completion events rescheduled). Ops with provably untouched rate
// inputs keep their scheduled completion events and are not visited.
func (c *Cluster) Mutate(fn func()) {
	c.mutDepth++
	fn()
	c.mutDepth--
	if c.mutDepth == 0 {
		c.refreshDirty()
	}
}

// markOpDirty queues op for the refresh at the end of the current
// mutation scope. Idempotent per scope.
func (c *Cluster) markOpDirty(op *fluidOp) {
	if !op.dirty {
		op.dirty = true
		c.dirtyOps = append(c.dirtyOps, op)
	}
}

// markNodeOpsDirty marks every op whose rate derives from node id.
// Wired as the node's change hook: any activity membership change
// recomputes all activity rates on that node.
func (c *Cluster) markNodeOpsDirty(id int) {
	for _, op := range c.nodeOps[id] {
		c.markOpDirty(op)
	}
}

// bindHandlers allocates the op's two long-lived closures, once per
// arena object: handler is what completion events invoke, complete is
// the Mutate body it wraps. Allocating them here (not per schedule)
// keeps the event loop allocation-free. They reach the cluster through
// op.c, so a pooled op serves whichever cluster reuses it, and a
// retired op in the pool pins no cluster.
func bindHandlers(op *fluidOp) {
	op.complete = func() {
		c := op.c
		// Settle may leave a hair of work if rates fell since the
		// event was scheduled; in that case re-arm instead of
		// completing early.
		c.settleOp(op)
		if op.remaining > opEpsilon && op.lastRate > 0 {
			c.markOpDirty(op) // refreshDirty will reschedule
			return
		}
		op.remaining = 0
		c.removeFromOps(op)
		op.event = 0
		done := op.onDone
		if done != nil {
			done(op) // may read op fields (e.g. total); release comes after
		}
		c.releaseOp(op)
	}
	op.handler = func() {
		if op.pos < 0 {
			return // dropped between scheduling and firing
		}
		op.event = 0 // this event has fired; it no longer guards the op
		op.c.Mutate(op.complete)
	}
}

// newOp builds and registers an unbound op, recycling from the pool
// when possible. Must be called inside Mutate. The caller binds it
// (node/flow/loose) before the scope ends.
func (c *Cluster) newOp(id opID, work float64, onDone func(*fluidOp)) *fluidOp {
	if c.mutDepth == 0 {
		panic("mr: addOp outside Mutate")
	}
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("mr: op %q with invalid work %v", id, work))
	}
	var op *fluidOp
	if pool := c.sim.ops; len(pool) > 0 {
		op = pool[len(pool)-1]
		pool[len(pool)-1] = nil
		c.sim.ops = pool[:len(pool)-1]
	} else {
		op = &fluidOp{}
		bindHandlers(op)
	}
	op.c = c
	op.id = id
	op.total = work
	op.remaining = work
	op.lastRate = 0
	op.lastSettle = c.clock.Now()
	op.onDone = onDone
	op.nodeID = -1
	op.event = 0
	c.addToOps(op)
	c.markOpDirty(op) // new ops always need a first refresh
	return op
}

// releaseOp resets a retired op and returns it to the pool. Skipped
// when pooling is disabled, when the op is still registered, or when a
// stale reference to it sits in the dirty queue (rare teardown race —
// the GC takes those; recycling them would let refreshDirty touch the
// slot's next occupant).
func (c *Cluster) releaseOp(op *fluidOp) {
	if c.noPool || op.dirty || op.pos >= 0 {
		return
	}
	op.c = nil // the pool outlives the cluster (see SimState)
	op.id = opID{}
	op.total = 0
	op.remaining = 0
	op.lastRate = 0
	op.lastSettle = 0
	op.event = 0
	op.onDone = nil
	op.rateFn = nil
	op.flow = nil
	op.loose = false
	op.nodeID = -1
	c.sim.ops = append(c.sim.ops, op)
}

// addOp registers loose fluid work whose rate has no tracked source;
// it is re-read on every Mutate, heartbeats included, so it wakes any
// parked ones. Tests use it with closure rates.
func (c *Cluster) addOp(work float64, rateFn func() float64, onDone func(*fluidOp)) *fluidOp {
	c.wakeTrackers()
	op := c.newOp(opID{kind: opLoose}, work, onDone)
	op.rateFn = rateFn
	op.loose = true
	op.looseSlot = len(c.looseOps)
	c.looseOps = append(c.looseOps, op)
	return op
}

// addNodeOp registers fluid work driven by act (CPU and disk phases),
// which it registers on node as the op's own activity; retiring or
// dropping the op removes it again. Binding the activity directly —
// instead of taking a rate closure — keeps task launch allocation-free.
func (c *Cluster) addNodeOp(node int, id opID, work float64, act resource.Activity, onDone func(*fluidOp)) *fluidOp {
	op := c.newOp(id, work, onDone)
	op.act = act
	op.nodeID = node
	op.nodeSlot = len(c.nodeOps[node])
	c.nodeOps[node] = append(c.nodeOps[node], op)
	c.nodes[node].Add(&op.act)
	return op
}

// startFlow opens a src→dst transfer of mb and registers the op it
// drives. The op is bound (Flow.Userdata) before the fabric sees the
// flow, so the trace observer can name the flow from the op's id. The
// live flow is op.flow; callers keep their own pointer to it, since
// retiring the op unbinds it before onDone runs.
func (c *Cluster) startFlow(id opID, src, dst int, mb, capMBps float64, onDone func(*fluidOp)) *fluidOp {
	flow := c.newFlow(src, dst, mb, capMBps)
	op := c.newOp(id, mb, onDone)
	op.flow = flow
	flow.Userdata = op
	c.fabric.Add(flow)
	return op
}

// The op set is an insertion-ordered slice (with swap-remove) rather
// than a map: refresh processes dirty ops in registration order, and
// that order assigns event sequence numbers, which break ties between
// same-instant completions. Map iteration order would make those ties —
// and any rng draws their handlers perform — nondeterministic. Each op
// carries its own slice position so membership tests and removal need
// no hashing.

func (c *Cluster) addToOps(op *fluidOp) {
	op.pos = len(c.ops)
	c.ops = append(c.ops, op)
}

func (c *Cluster) removeFromOps(op *fluidOp) {
	i := op.pos
	if i < 0 {
		return
	}
	last := len(c.ops) - 1
	c.ops[i] = c.ops[last]
	c.ops[i].pos = i
	c.ops[last] = nil
	c.ops = c.ops[:last]
	op.pos = -1
	c.unbindOp(op)
}

// unbindOp detaches an op from its dirty source. A node-bound op's
// activity leaves the node after the op has left the node's op list,
// so the removal dirties only the ops that stay.
func (c *Cluster) unbindOp(op *fluidOp) {
	switch {
	case op.nodeID >= 0:
		list := c.nodeOps[op.nodeID]
		last := len(list) - 1
		list[op.nodeSlot] = list[last]
		list[op.nodeSlot].nodeSlot = op.nodeSlot
		list[last] = nil
		c.nodeOps[op.nodeID] = list[:last]
		c.nodes[op.nodeID].Remove(&op.act)
		op.nodeID = -1
	case op.flow != nil:
		op.flow.Userdata = nil
		op.flow = nil
	case op.loose:
		last := len(c.looseOps) - 1
		c.looseOps[op.looseSlot] = c.looseOps[last]
		c.looseOps[op.looseSlot].looseSlot = op.looseSlot
		c.looseOps[last] = nil
		c.looseOps = c.looseOps[:last]
		op.loose = false
	}
}

func (c *Cluster) hasOp(op *fluidOp) bool {
	return op.pos >= 0
}

// dropOp unregisters an op without completing it (task teardown) and
// recycles it. Safe to call on nil and already-retired ops. Callers
// must clear their own pointers to the op afterwards: once released it
// may be reincarnated as unrelated work.
func (c *Cluster) dropOp(op *fluidOp) {
	if op == nil {
		return
	}
	if !c.hasOp(op) {
		return
	}
	c.removeFromOps(op)
	c.clock.Cancel(op.event)
	op.event = 0
	c.releaseOp(op)
}

// topUpOp adds work to a live op (shuffle flows gain bytes when map
// outputs commit). Must be called inside Mutate. Progress so far is
// settled before the top-up so the new work extends from now.
func (c *Cluster) topUpOp(op *fluidOp, work float64) {
	if c.mutDepth == 0 {
		panic("mr: topUpOp outside Mutate")
	}
	if work < 0 {
		panic(fmt.Sprintf("mr: topUpOp %q with negative work %v", op.id, work))
	}
	if !c.hasOp(op) {
		panic(fmt.Sprintf("mr: topUpOp on retired op %q", op.id))
	}
	c.settleOp(op)
	op.total += work
	op.remaining += work
	c.markOpDirty(op) // completion moved out; reschedule at refresh
}

// settleOp integrates one op's progress up to now at its last computed
// rate. Idempotent within an instant.
func (c *Cluster) settleOp(op *fluidOp) {
	now := c.clock.Now()
	dt := now - op.lastSettle
	if dt > 0 && op.lastRate > 0 {
		op.remaining -= op.lastRate * dt
		if op.remaining < 0 {
			// A completion event at exactly this instant is still
			// queued; tolerate the epsilon and clamp.
			if op.remaining < -1e-6*math.Max(1, op.total) {
				panic(fmt.Sprintf("mr: op %q overshot by %v", op.id, -op.remaining))
			}
			op.remaining = 0
		}
	}
	op.lastSettle = now
}

// refreshDirty resolves fabric rates for perturbed components (which
// marks flow-bound ops whose rates changed), then settles and
// reschedules every dirty op. Ops that were not touched keep their
// completion events untouched — their scheduled times are still exact
// because their rates did not change.
func (c *Cluster) refreshDirty() {
	c.fabric.ResolveDirty()
	for _, op := range c.looseOps {
		c.markOpDirty(op)
	}
	if len(c.dirtyOps) == 0 {
		return
	}
	// Drop retired ops from the dirty list, then process in
	// registration order so event sequence numbers — the tie-break for
	// same-instant completions — are assigned deterministically.
	live := c.dirtyOps[:0]
	for _, op := range c.dirtyOps {
		op.dirty = false
		if c.hasOp(op) {
			live = append(live, op)
		}
	}
	slices.SortFunc(live, func(a, b *fluidOp) int { return a.pos - b.pos })
	now := c.clock.Now()
	for _, op := range live {
		c.settleOp(op)
		rate := op.currentRate()
		if math.IsNaN(rate) || rate < 0 {
			panic(fmt.Sprintf("mr: op %q has invalid rate %v", op.id, rate))
		}
		// Unchanged rate with a live event: the scheduled completion is
		// still exact, so skip the reschedule churn. This is the common
		// case for loose ops and node ops whose sibling count changed
		// without moving the share.
		if rate == op.lastRate && c.clock.EventLive(op.event) && op.remaining > opEpsilon {
			continue
		}
		op.lastRate = rate
		var at float64
		switch {
		case op.remaining <= opEpsilon:
			at = now
		case rate > 0:
			eta := op.remaining / rate
			if math.IsInf(eta, 1) {
				c.clock.Cancel(op.event)
				op.event = 0
				continue
			}
			at = now + eta
		default:
			// Stalled: no event until the rate moves again.
			c.clock.Cancel(op.event)
			op.event = 0
			continue
		}
		if c.clock.EventLive(op.event) {
			op.event = c.clock.Reschedule(op.event, at)
		} else {
			op.event = c.clock.Schedule(at, op.id.kind.String(), op.handler)
		}
	}
	c.dirtyOps = c.dirtyOps[:0]
}
