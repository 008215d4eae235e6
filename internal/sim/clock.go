// Package sim provides the discrete-event simulation core used by every
// other simulated subsystem: a virtual clock, a cancellable event queue,
// and a deterministic pseudo-random source.
//
// All simulated time is expressed in seconds as float64. The event loop
// is strictly single-threaded; determinism is guaranteed by breaking
// time ties with a monotonically increasing sequence number.
//
// Events live in a slab-backed arena rather than as individually
// heap-allocated objects: Schedule hands out generation-stamped
// EventRef handles, retired slots are recycled through a free list, and
// the priority queue is an index heap over slot numbers. In steady
// state (schedule/fire/cancel churn at stable queue depth) the event
// loop performs zero allocations.
//
// A hierarchical timing wheel (wheel.go) sits in front of the heap:
// near-future events land in O(1) buckets and are staged into the heap
// only as the dispatch frontier reaches them, so the heap stays small
// while the firing order — always arbitrated by the heap — is
// byte-identical to a heap-only scheduler (selectable via SetHeapOnly
// for differential verification). Strictly periodic work should use
// SchedulePeriodic, which re-arms in place with no release/acquire
// cycle per beat; a chain whose beats are inert for a while can Park
// (lane.go), which runs them off the wheel and heap at their reserved
// (at, seq) places.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// EventRef is a generation-stamped handle to a scheduled event. The
// zero EventRef is invalid and safe to Cancel (a no-op), so callers can
// tear state down unconditionally. A ref outlives its event: state
// queries (EventLive, EventFired, EventCancelled) keep answering until
// the underlying arena slot is recycled by a later Schedule, and Cancel
// on a recycled slot is detected by generation mismatch instead of
// corrupting the slot's new occupant.
type EventRef int64

// Event slot states. A slot is exactly one of: free-and-never-used
// (zero state), pending (queued in the heap), fired, or cancelled.
// Fired and cancelled are distinct so Cancel after the event ran does
// not masquerade as a successful cancellation.
const (
	evPending uint8 = iota + 1
	evFired
	evCancelled
)

// eventSlot is one arena entry. fn and label survive fire/cancel so a
// terminal ref can still be re-armed by Reschedule; they are
// overwritten when the slot is recycled by a later Schedule.
type eventSlot struct {
	at      Time
	seq     uint64
	fn      func()
	label   string
	period  Time  // re-arm interval; 0 for one-shot events
	heapIdx int32 // position in Clock.heap, or in Clock.lane when parked; -1 when in neither
	link    int32 // free-list link, or next entry in a wheel bucket
	prev    int32 // previous entry in a wheel bucket
	bucket  int32 // wheel bucket index; -1 when not in the wheel
	gen     int32 // bumped on every allocation; high half of the ref
	state   uint8
	parked  bool // periodic chain whose beats run in the parked lane
}

// Clock owns virtual time and the pending event set.
// The zero value is not usable; call NewClock.
type Clock struct {
	now   Time
	seq   uint64
	fired uint64

	// Event arena: a growable slab of slots, a LIFO free list threaded
	// through link, and a 4-ary index heap of pending slot numbers
	// ordered by (at, seq). 4-ary keeps the hot sift paths shallow and
	// the child scan within one cache line of int32 indices.
	slots    []eventSlot
	freeHead int32
	heap     []int32

	// Timing wheel (wheel.go): two levels of bucket list heads with
	// occupancy bitmaps, the dispatch frontier in wheel ticks, and the
	// wheel-resident event count. heapOnly bypasses the wheel entirely
	// (the heap-only reference scheduler).
	heapOnly   bool
	disp       int64
	wheelCount int
	buckets    [2 * wheelSlots]int32
	occ        [2 * occWords]uint64

	// Parked lane (lane.go): the slots of parked periodic chains in
	// lane[laneHead:], sorted by (at, seq); a parked slot's heapIdx is
	// its index in lane. idles holds each parked slot's idle callback,
	// indexed by slot. parkedFired counts the beats the lane dispatched.
	lane        []int32
	laneHead    int
	idles       []func()
	parkedFired uint64
}

// NewClock returns a clock positioned at time zero with no pending events.
func NewClock() *Clock {
	c := &Clock{freeHead: -1}
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	return c
}

// SetHeapOnly selects the heap-only differential scheduler: every
// event queues straight into the 4-ary heap and the timing wheel is
// bypassed. The firing order is identical by construction — the wheel
// only stages events into the heap, which always arbitrates the final
// (at, seq) order — so this mode exists to prove exactly that (mr's
// Config.Reference selects it). The mode must be chosen while no
// events are pending and survives Reset.
func (c *Clock) SetHeapOnly(on bool) {
	if c.Pending() != 0 {
		panic("sim: SetHeapOnly with events pending")
	}
	c.heapOnly = on
}

// HeapOnly reports whether the heap-only differential scheduler is on.
func (c *Clock) HeapOnly() bool { return c.heapOnly }

// Reset returns the clock to time zero with no pending events,
// retaining the arena slab and heap capacity so a pooled worker can
// drive consecutive simulations without re-growing either. The slots
// are zeroed (releasing retained callbacks and labels to the GC) and
// the free list, sequence and generation counters restart, so a reset
// clock is observationally identical to a fresh one — including the
// exact EventRef values it hands out. EventRefs issued before the
// reset must be dropped by the caller: their slots are recycled, so
// state queries and Cancel on them are unreliable.
func (c *Clock) Reset() {
	c.now, c.seq, c.fired, c.parkedFired = 0, 0, 0, 0
	clear(c.slots)
	c.slots = c.slots[:0]
	c.heap = c.heap[:0]
	c.lane = c.lane[:0]
	c.laneHead = 0
	clear(c.idles)
	c.freeHead = -1
	c.disp = 0
	c.wheelCount = 0
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	clear(c.occ[:])
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired reports how many events have executed so far, parked beats
// included.
func (c *Clock) Fired() uint64 { return c.fired }

// ParkedFired reports how many of the Fired events were parked beats
// that ran their idle callback (see Park).
func (c *Clock) ParkedFired() uint64 { return c.parkedFired }

// Pending reports how many events are scheduled and not yet cancelled.
// O(1): cancelled events leave the heap, wheel and lane eagerly, so the
// sum of the three populations is the pending count. A periodic event
// counts while queued (or parked) for its next beat, but not during its
// own callback.
func (c *Clock) Pending() int { return len(c.heap) + c.wheelCount + len(c.lane) - c.laneHead }

// makeRef packs a slot index and its generation into a handle. The +1
// keeps the zero EventRef invalid.
func makeRef(gen, idx int32) EventRef {
	return EventRef((int64(gen)<<32 | int64(idx)) + 1)
}

// slot resolves a ref to its arena slot, or nil when the ref is zero,
// out of range, or of an earlier generation than the slot's current
// occupant (the event's slot has been recycled).
func (c *Clock) slot(ref EventRef) *eventSlot {
	idx := int32(uint32(ref)) - 1
	if idx < 0 || int(idx) >= len(c.slots) {
		return nil
	}
	s := &c.slots[idx]
	if s.gen != int32(ref>>32) {
		return nil
	}
	return s
}

// EventLive reports whether ref's event is still queued to fire.
// False for fired, cancelled, recycled, and zero refs.
func (c *Clock) EventLive(ref EventRef) bool {
	s := c.slot(ref)
	return s != nil && s.state == evPending
}

// EventFired reports whether ref's event has run. Exact until the
// event's arena slot is recycled, after which it reports false.
func (c *Clock) EventFired(ref EventRef) bool {
	s := c.slot(ref)
	return s != nil && s.state == evFired
}

// EventCancelled reports whether ref's event was cancelled before
// firing. An event that ran is fired, never cancelled — Cancel after
// the fact is a no-op. Exact until the slot is recycled.
func (c *Clock) EventCancelled(ref EventRef) bool {
	s := c.slot(ref)
	return s != nil && s.state == evCancelled
}

// alloc takes a slot from the free list (or grows the slab), stamps a
// fresh generation, and returns its index.
func (c *Clock) alloc() int32 {
	var idx int32
	if c.freeHead >= 0 {
		idx = c.freeHead
		c.freeHead = c.slots[idx].link
	} else {
		idx = int32(len(c.slots))
		c.slots = append(c.slots, eventSlot{})
	}
	c.slots[idx].gen++
	return idx
}

// release pushes a terminal slot onto the free list. Its gen, state,
// fn and label are retained so outstanding refs keep resolving until
// the slot is recycled.
func (c *Clock) release(idx int32) {
	c.slots[idx].link = c.freeHead
	c.freeHead = idx
}

// Schedule registers fn to run at absolute virtual time at.
// Scheduling in the past (before Now) panics: it always indicates a
// logic error in a simulated component, and silently clamping would
// hide causality bugs. Scheduling exactly at Now is allowed and runs
// after all currently queued events at Now with smaller sequence.
func (c *Clock) Schedule(at Time, label string, fn func()) EventRef {
	if at < c.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", label, at, c.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule %q at non-finite time %v", label, at))
	}
	c.seq++
	idx := c.alloc()
	s := &c.slots[idx]
	s.at = at
	s.seq = c.seq
	s.fn = fn
	s.label = label
	s.period = 0
	s.state = evPending
	s.parked = false
	c.enqueue(idx)
	return makeRef(s.gen, idx)
}

// SchedulePeriodic registers fn to run at absolute time at and then
// again period seconds after each firing. The chain re-arms in place —
// no slot release/acquire per beat — and the returned ref stays valid
// (and EventLive) for the chain's whole life. Each beat's next
// occurrence is Now()+period with a sequence number taken as fn
// returns, bit-identical in timing and ordering to a callback that
// ends with After(period, ...). Cancel stops the chain, including from
// inside fn; Reschedule moves only the next beat and keeps the chain
// going. A non-positive or non-finite period panics.
func (c *Clock) SchedulePeriodic(at, period Time, label string, fn func()) EventRef {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		panic(fmt.Sprintf("sim: periodic %q with invalid period %v", label, period))
	}
	ref := c.Schedule(at, label, fn)
	c.slots[int32(uint32(ref))-1].period = period
	return ref
}

// EventPeriod returns ref's re-arm period, or 0 for one-shot events
// and for refs that are terminal, recycled, or zero.
func (c *Clock) EventPeriod(ref EventRef) Time {
	if s := c.slot(ref); s != nil && s.state == evPending {
		return s.period
	}
	return 0
}

// After registers fn to run d seconds from now. Negative d panics.
func (c *Clock) After(d Time, label string, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return c.Schedule(c.now+d, label, fn)
}

// Cancel removes an event from the queue without firing it. Cancelling
// a zero ref, an already-cancelled event, an event that already fired,
// or a ref whose slot has been recycled is a no-op, which lets callers
// cancel unconditionally when tearing state down. Cancelling a
// periodic event stops its chain, even from inside its own callback.
func (c *Clock) Cancel(ref EventRef) {
	s := c.slot(ref)
	if s == nil || s.state != evPending {
		return
	}
	idx := int32(uint32(ref)) - 1
	switch {
	case s.bucket >= 0:
		c.wheelUnlink(idx)
	case s.parked && s.heapIdx >= 0:
		c.laneRemove(int(s.heapIdx))
	case s.heapIdx >= 0:
		c.heapRemove(int(s.heapIdx))
	}
	// Queued nowhere: a periodic event cancelled from inside its own
	// callback — the terminal state alone stops the chain.
	s.state = evCancelled
	s.parked = false
	s.heapIdx = -1
	c.release(idx)
}

// Reschedule moves a pending event to a new absolute time by sifting
// it in place — no cancel/reallocate round trip. The event takes a
// fresh sequence number, so among events at the same instant it fires
// as if newly scheduled (exactly the old cancel+schedule semantics),
// and the same ref stays valid. If the event already fired or was
// cancelled (slot not yet recycled), its retained callback is
// scheduled as a fresh one-shot event and the new ref is returned.
// Rescheduling a zero ref or one whose slot was recycled panics: the
// callback is gone, so the caller's bookkeeping is broken. A pending
// periodic event keeps its period — only the next beat moves — and a
// parked one stays parked.
func (c *Clock) Reschedule(ref EventRef, at Time) EventRef {
	s := c.slot(ref)
	if s == nil {
		panic(fmt.Sprintf("sim: Reschedule of invalid or recycled EventRef %#x", int64(ref)))
	}
	if s.state != evPending {
		fn, label := s.fn, s.label // copy out: Schedule may recycle this very slot
		return c.Schedule(at, label, fn)
	}
	if at < c.now {
		panic(fmt.Sprintf("sim: reschedule %q at %v before now %v", s.label, at, c.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: reschedule %q at non-finite time %v", s.label, at))
	}
	c.seq++
	s.at = at
	s.seq = c.seq
	idx := int32(uint32(ref)) - 1
	switch {
	case s.bucket >= 0:
		c.wheelUnlink(idx)
		c.enqueue(idx)
	case s.parked && s.heapIdx >= 0:
		c.laneRemove(int(s.heapIdx))
		c.lanePush(idx)
	case s.heapIdx >= 0:
		if c.placement(at) < 0 {
			c.heapFix(int(s.heapIdx)) // stays in the heap: sift in place
		} else {
			c.heapRemove(int(s.heapIdx))
			s.heapIdx = -1
			c.enqueue(idx)
		}
	default:
		// An in-flight periodic event rescheduling its own next beat:
		// queue it here; Step sees it queued and skips the auto re-arm.
		c.rearm(idx)
	}
	return ref
}

// Step fires the single earliest pending event, taking it from the
// heap or, for a parked beat, from the lane. It returns false when the
// queue is empty.
func (c *Clock) Step() bool {
	c.syncHeap()
	var idx int32
	var fn func() // copied out before release: fn may recycle the slot
	switch {
	case c.laneFirst():
		idx = c.lanePop()
		fn = c.idles[idx]
		c.parkedFired++
	case len(c.heap) > 0:
		idx = c.heap[0]
		fn = c.slots[idx].fn
		c.heapPop()
	default:
		return false
	}
	s := &c.slots[idx]
	if s.at < c.now {
		panic("sim: event queue time went backwards")
	}
	c.now = s.at
	s.heapIdx = -1
	if s.period > 0 {
		// Periodic fast path: the slot stays pending ("in flight")
		// while fn runs, then re-arms in place — no release/alloc
		// cycle, and the ref stays valid across beats. The re-arm
		// sequence number is taken after fn returns, exactly where a
		// self-rescheduling callback would have taken it, so the
		// firing order matches the one-shot chain bit for bit — in
		// the lane or out of it. The guard skips the re-arm when fn
		// cancelled the chain (possibly recycling the slot) or queued
		// the next beat via Reschedule.
		gen := s.gen
		c.fired++
		fn()
		s = &c.slots[idx] // re-take: fn may have grown the slab
		if s.gen == gen && s.state == evPending && s.heapIdx < 0 && s.bucket < 0 {
			c.seq++
			s.at = c.now + s.period
			s.seq = c.seq
			c.rearm(idx)
		}
		return true
	}
	s.state = evFired
	c.release(idx)
	c.fired++
	fn()
	return true
}

// Run fires events until the queue drains or until the next event would
// be after limit. It returns the number of events fired. A limit of
// math.Inf(1) runs to quiescence.
func (c *Clock) Run(limit Time) uint64 {
	start := c.fired
	for {
		if s := c.peek(); s == nil || s.at > limit {
			break
		}
		c.Step()
	}
	return c.fired - start
}

// RunUntilIdle fires events until no events remain. It guards against
// runaway simulations with maxEvents; exceeding it panics, since an
// unbounded event cascade is always a component bug.
func (c *Clock) RunUntilIdle(maxEvents uint64) uint64 {
	start := c.fired
	for c.Step() {
		if c.fired-start > maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events without quiescing (last time %v)", maxEvents, c.now))
		}
	}
	return c.fired - start
}

// peek stages the wheel and returns the slot of the earliest pending
// event — the heap root or the lane head — or nil when none is pending.
func (c *Clock) peek() *eventSlot {
	c.syncHeap() // the heap root is the global minimum of heap and wheel afterwards
	switch {
	case c.laneFirst():
		return &c.slots[c.lane[c.laneHead]]
	case len(c.heap) > 0:
		return &c.slots[c.heap[0]]
	}
	return nil
}

// less orders heap entries by (time, seq). The sequence number is
// unique per event, so the order is total — heap arity and sift order
// cannot change the firing sequence.
func (c *Clock) less(a, b int32) bool {
	sa, sb := &c.slots[a], &c.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// siftUp restores the heap property upward from i, hole-style: the
// moving entry is held out and written once at its final position.
func (c *Clock) siftUp(i int) {
	h := c.heap
	cur := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !c.less(cur, h[p]) {
			break
		}
		h[i] = h[p]
		c.slots[h[i]].heapIdx = int32(i)
		i = p
	}
	h[i] = cur
	c.slots[cur].heapIdx = int32(i)
}

// siftDown restores the heap property downward from i.
func (c *Clock) siftDown(i int) {
	h := c.heap
	n := len(h)
	cur := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for k := first + 1; k < end; k++ {
			if c.less(h[k], h[best]) {
				best = k
			}
		}
		if !c.less(h[best], cur) {
			break
		}
		h[i] = h[best]
		c.slots[h[i]].heapIdx = int32(i)
		i = best
	}
	h[i] = cur
	c.slots[cur].heapIdx = int32(i)
}

// heapFix re-establishes the heap property at i after its key changed
// in either direction. If siftDown moved a former descendant into i,
// that entry already satisfies the upward property (its relation to
// i's ancestors predates the change), so siftUp is needed only when
// the entry at i stayed put.
func (c *Clock) heapFix(i int) {
	cur := c.heap[i]
	c.siftDown(i)
	if c.heap[i] == cur {
		c.siftUp(i)
	}
}

// heapRemove deletes the entry at heap position i.
func (c *Clock) heapRemove(i int) {
	last := len(c.heap) - 1
	if i != last {
		moved := c.heap[last]
		c.heap[i] = moved
		c.slots[moved].heapIdx = int32(i)
		c.heap = c.heap[:last]
		c.heapFix(i)
	} else {
		c.heap = c.heap[:last]
	}
}

// heapPop removes the root (the earliest pending event).
func (c *Clock) heapPop() {
	last := len(c.heap) - 1
	if last > 0 {
		moved := c.heap[last]
		c.heap[0] = moved
		c.slots[moved].heapIdx = 0
		c.heap = c.heap[:last]
		c.siftDown(0)
	} else {
		c.heap = c.heap[:last]
	}
}
