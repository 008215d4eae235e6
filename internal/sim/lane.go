// Parked lane: periodic chains whose beats are inert for a while.
//
// A heartbeat on an idle tracker samples three zero rates and does
// nothing else, yet as an ordinary periodic event it still passes
// through the timing wheel and the heap every period. Park moves such a
// chain into the lane, a side queue, and swaps its callback for a
// cheaper idle one. The lane keeps the chain's exact place in the
// global order:
//
//   - a parked beat fires at the same (at, seq) key the normal beat
//     would take, and its re-arm draws the same c.seq++ after the idle
//     callback returns, so every later sequence number is unchanged;
//   - Step compares the lane head with the heap root by (at, seq), so
//     ties with ordinary events break exactly as they would have;
//   - Unpark returns the chain to the wheel or heap with its (at, seq)
//     key unchanged.
//
// So the firing order — and with it every output of a caller whose
// idle callback does what the full one would have done in that state —
// is identical by construction. No tie analysis is needed.
//
// The lane is a sorted window lane[laneHead:] of slot indices. Chains
// of one period re-arm in firing order, so a parked beat pops the head
// and its re-arm appends at the tail: O(1), and the window slides
// through a backing array that is compacted once half of it is dead.
// Out-of-order keys (mixed periods, Reschedule) insert by a scan from
// the tail. A parked slot's heapIdx is its index in lane, so eventSlot
// does not grow, and the idle callbacks live in idles, indexed by slot
// and written only by Park, so a parked beat writes no pointers. All
// lane storage survives Reset: a reused clock parks without allocating.
package sim

import "fmt"

// Park switches periodic event ref to the parked lane: its beats run
// idle in place of the event's callback, at exactly the (at, seq)
// places the normal beats would take, without touching the timing
// wheel or the heap. The caller guarantees that, until it calls
// Unpark, idle does what the callback would have done — parking then
// changes cost, never order. Parking from inside the chain's own
// callback (the usual case) parks the re-arm that follows it; parking
// a queued chain moves its next beat into the lane; parking a parked
// chain replaces its idle callback. Cancel and Reschedule work on a
// parked chain as on any other (a rescheduled chain stays parked).
// Parking a zero, terminal or recycled ref is a no-op; parking a
// one-shot event panics.
func (c *Clock) Park(ref EventRef, idle func()) {
	s := c.slot(ref)
	if s == nil || s.state != evPending {
		return
	}
	if s.period == 0 {
		panic(fmt.Sprintf("sim: Park of one-shot event %q", s.label))
	}
	idx := int32(uint32(ref)) - 1
	if int(idx) >= len(c.idles) {
		c.idles = append(c.idles, make([]func(), int(idx)+1-len(c.idles))...)
	}
	c.idles[idx] = idle
	if s.parked {
		return
	}
	s.parked = true
	switch {
	case s.bucket >= 0:
		c.wheelUnlink(idx)
		c.lanePush(idx)
	case s.heapIdx >= 0:
		c.heapRemove(int(s.heapIdx))
		c.lanePush(idx)
	}
	// Queued nowhere: in flight, and Step's re-arm takes the lane.
}

// Unpark returns a parked chain to the timing wheel or heap with its
// next beat's (at, seq) key unchanged, so from that beat on it runs its
// own callback again, in the place it always held. Unparking from
// inside the chain's idle callback takes effect at its re-arm.
// Unparking a chain that is not parked, or a zero, terminal or
// recycled ref, is a no-op.
func (c *Clock) Unpark(ref EventRef) {
	s := c.slot(ref)
	if s == nil || s.state != evPending || !s.parked {
		return
	}
	s.parked = false
	if s.heapIdx >= 0 {
		c.laneRemove(int(s.heapIdx))
		c.enqueue(int32(uint32(ref)) - 1)
	}
}

// EventParked reports whether ref's event is a pending chain in the
// parked lane (including during its own callback).
func (c *Clock) EventParked(ref EventRef) bool {
	s := c.slot(ref)
	return s != nil && s.state == evPending && s.parked
}

// laneFirst reports whether the lane head fires before the heap root
// (or the heap is empty). Callers sync the heap first.
func (c *Clock) laneFirst() bool {
	return c.laneHead < len(c.lane) && (len(c.heap) == 0 || c.less(c.lane[c.laneHead], c.heap[0]))
}

// rearm queues an in-flight periodic slot whose next (at, seq) key is
// set: into the lane when parked, into the wheel or heap otherwise.
func (c *Clock) rearm(idx int32) {
	if c.slots[idx].parked {
		c.lanePush(idx)
	} else {
		c.enqueue(idx)
	}
}

// lanePop removes and returns the lane head.
func (c *Clock) lanePop() int32 {
	idx := c.lane[c.laneHead]
	c.laneHead++
	if c.laneHead == len(c.lane) {
		c.lane, c.laneHead = c.lane[:0], 0
	}
	return idx
}

// lanePush inserts slot idx into the lane in (at, seq) order, scanning
// from the tail, where a re-arm of the head almost always lands. A full
// backing array is compacted when at least half of it is dead, and
// grown otherwise, which keeps the slide amortised O(1).
func (c *Clock) lanePush(idx int32) {
	if n := len(c.lane); n == cap(c.lane) && c.laneHead > 0 && 2*c.laneHead >= n {
		live := copy(c.lane, c.lane[c.laneHead:])
		c.lane, c.laneHead = c.lane[:live], 0
		for i, k := range c.lane {
			c.slots[k].heapIdx = int32(i)
		}
	}
	c.slots[idx].bucket = -1
	c.lane = append(c.lane, idx)
	i := len(c.lane) - 1
	for ; i > c.laneHead && c.less(idx, c.lane[i-1]); i-- {
		c.lane[i] = c.lane[i-1]
		c.slots[c.lane[i]].heapIdx = int32(i)
	}
	c.lane[i] = idx
	c.slots[idx].heapIdx = int32(i)
}

// laneRemove deletes the lane entry at index i.
func (c *Clock) laneRemove(i int) {
	if i == c.laneHead {
		c.lanePop()
		return
	}
	copy(c.lane[i:], c.lane[i+1:])
	c.lane = c.lane[:len(c.lane)-1]
	for ; i < len(c.lane); i++ {
		c.slots[c.lane[i]].heapIdx = int32(i)
	}
}
