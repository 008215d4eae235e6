// Hierarchical timing wheel staged in front of the 4-ary heap.
//
// The event population in every simulated workload is dominated by
// near-future work (heartbeats, sampler/controller/capacity ticks, op
// completions a few seconds out), so most Schedule calls can skip the
// O(log n) heap sift: virtual time is quantised into 1/64 s ticks and
// near-future events are pushed onto unordered per-tick bucket lists in
// O(1). The wheel never decides firing order. As the dispatch frontier
// advances, each bucket is dumped wholesale into the heap, and the heap
// arbitrates the exact (at, seq) total order — so the firing sequence
// is identical to a heap-only scheduler by construction, which is what
// the heap-only reference mode (SetHeapOnly) pins.
//
// Geometry: two levels of 256 buckets over aligned tick blocks.
// Level 0 covers the frontier's current 256-tick block (4 s of virtual
// time) at one-tick resolution; level 1 covers the current 65536-tick
// super-block (1024 s) at one-block resolution. An event is placed by
// its tick t relative to the frontier disp (the first undispatched
// tick):
//
//	t >> 8 == disp >> 8   -> level 0, slot t & 255
//	t >> 16 == disp >> 16 -> level 1, slot (t >> 8) & 255
//	otherwise             -> heap (already-dispatched tick, or
//	                         far-future spill past the super-block)
//
// Cascade rule: when the frontier enters a block, that block's level-1
// bucket is re-placed — every event in it lands in its exact level-0
// slot. Level-1 buckets of the frontier's own block are empty by
// placement (those events go straight to level 0), and a super-block
// crossing needs no level-2: events past the current super-block were
// spilled to the heap at Schedule time, and heap residents never
// migrate back — the heap is always correct, just slower.
package sim

import "math/bits"

const (
	// wheelBits is log2 of the slot count per wheel level.
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	// tickHz is the wheel resolution: 64 ticks per virtual second.
	// Bucketing only — firing times and order stay exact floats.
	tickHz = 64.0
	// occWords is the occupancy bitmap length per level.
	occWords = wheelSlots / 64
)

// tickOf quantises an absolute time to a wheel tick. Callers must
// bound the value in float space first: converting a float beyond the
// int64 range is implementation-defined.
func tickOf(at Time) int64 { return int64(at * tickHz) }

// superEnd returns the first tick past the frontier's current
// super-block; events at or beyond it spill to the heap.
func (c *Clock) superEnd() int64 {
	return (c.disp>>(2*wheelBits) + 1) << (2 * wheelBits)
}

// placement maps an absolute event time to a wheel bucket index, or -1
// when the event belongs in the heap: heap-only mode, a tick already
// behind the dispatch frontier, or past the current super-block.
func (c *Clock) placement(at Time) int32 {
	if c.heapOnly || at*tickHz >= float64(c.superEnd()) {
		return -1
	}
	t := tickOf(at)
	if t < c.disp {
		return -1
	}
	if t>>wheelBits == c.disp>>wheelBits {
		return int32(t & wheelMask)
	}
	return wheelSlots + int32(t>>wheelBits&wheelMask)
}

// enqueue places a pending slot into the wheel or the heap according
// to placement. The slot's at, seq and state must already be set.
func (c *Clock) enqueue(idx int32) {
	s := &c.slots[idx]
	if b := c.placement(s.at); b >= 0 {
		s.heapIdx = -1
		c.wheelLink(idx, b)
		return
	}
	s.bucket = -1
	s.heapIdx = int32(len(c.heap))
	c.heap = append(c.heap, idx)
	c.siftUp(len(c.heap) - 1)
}

// wheelLink pushes slot idx onto bucket b's intrusive list. LIFO and
// unordered: the heap re-establishes order when the bucket is dumped.
func (c *Clock) wheelLink(idx, b int32) {
	s := &c.slots[idx]
	s.bucket = b
	s.prev = -1
	s.link = c.buckets[b]
	if s.link >= 0 {
		c.slots[s.link].prev = idx
	}
	c.buckets[b] = idx
	c.occ[b>>6] |= 1 << (b & 63)
	c.wheelCount++
}

// wheelUnlink removes slot idx from its bucket list in O(1).
func (c *Clock) wheelUnlink(idx int32) {
	s := &c.slots[idx]
	b := s.bucket
	if s.prev >= 0 {
		c.slots[s.prev].link = s.link
	} else {
		c.buckets[b] = s.link
		if s.link < 0 {
			c.occ[b>>6] &^= 1 << (b & 63)
		}
	}
	if s.link >= 0 {
		c.slots[s.link].prev = s.prev
	}
	s.bucket = -1
	c.wheelCount--
}

// dumpBucket stages every event in bucket b into the heap.
func (c *Clock) dumpBucket(b int32) {
	idx := c.buckets[b]
	c.buckets[b] = -1
	c.occ[b>>6] &^= 1 << (b & 63)
	for idx >= 0 {
		s := &c.slots[idx]
		next := s.link
		s.bucket = -1
		s.heapIdx = int32(len(c.heap))
		c.heap = append(c.heap, idx)
		c.siftUp(len(c.heap) - 1)
		c.wheelCount--
		idx = next
	}
}

// cascade re-places every event in level-1 bucket b now that the
// frontier has entered its block: each lands in its exact level-0 slot
// (placement re-derives the bucket from the event time).
func (c *Clock) cascade(b int32) {
	idx := c.buckets[b]
	if idx < 0 {
		return
	}
	c.buckets[b] = -1
	c.occ[b>>6] &^= 1 << (b & 63)
	for idx >= 0 {
		next := c.slots[idx].link
		c.wheelCount--
		c.enqueue(idx)
		idx = next
	}
}

// nextOcc scans level's occupancy bitmap for the first occupied slot
// in [lo, hi], returning the slot number or -1.
func (c *Clock) nextOcc(level, lo, hi int32) int32 {
	base := level << (wheelBits - 6)
	for w := lo >> 6; w <= hi>>6; w++ {
		word := c.occ[base+w]
		if w == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		if w == hi>>6 {
			word &= ^uint64(0) >> (63 - hi&63)
		}
		if word != 0 {
			return w<<6 | int32(bits.TrailingZeros64(word))
		}
	}
	return -1
}

// dispatchThrough stages every wheel event with tick <= target into
// the heap and advances the frontier to target+1, cascading each
// block's level-1 bucket as the frontier enters it.
func (c *Clock) dispatchThrough(target int64) {
	for c.disp <= target {
		if c.wheelCount == 0 {
			c.disp = target + 1
			return
		}
		if c.disp&wheelMask == 0 {
			c.cascade(wheelSlots + int32(c.disp>>wheelBits&wheelMask))
		}
		blockEnd := c.disp | wheelMask
		upto := min(target, blockEnd)
		lo, hi := int32(c.disp&wheelMask), int32(upto&wheelMask)
		for {
			s := c.nextOcc(0, lo, hi)
			if s < 0 {
				break
			}
			c.dumpBucket(s)
			lo = s
		}
		c.disp = upto + 1
	}
}

// syncHeap stages wheel events into the heap until the heap root is
// the global minimum (or the wheel is empty), so Step and Run can
// treat the heap as the single source of earliest-event truth.
// Remaining wheel events then have strictly greater ticks than the
// root, hence strictly later times.
func (c *Clock) syncHeap() {
	for c.wheelCount > 0 {
		if c.disp&wheelMask == 0 {
			// Frontier at a block start: the block's level-1 bucket may
			// not have cascaded yet, and the scans below assume the
			// current block's events are all in level 0.
			c.cascade(wheelSlots + int32(c.disp>>wheelBits&wheelMask))
		}
		if len(c.heap) > 0 {
			at := c.slots[c.heap[0]].at
			target := c.superEnd() - 1 // root past the wheel horizon: drain it all
			if f := at * tickHz; f < float64(target+1) {
				target = tickOf(at)
			}
			c.dispatchThrough(target)
			return
		}
		// Heap empty: pull the earliest occupied bucket. Level-0 events
		// always live in the frontier's current block, so scan it
		// first, then jump the frontier to the next occupied level-1
		// block within the super-block.
		if s := c.nextOcc(0, int32(c.disp&wheelMask), wheelMask); s >= 0 {
			c.dispatchThrough(c.disp&^wheelMask | int64(s))
			return
		}
		block := c.disp >> wheelBits
		if int32(block&wheelMask) == wheelMask {
			panic("sim: wheel events beyond the dispatch super-block")
		}
		s := c.nextOcc(1, int32(block&wheelMask)+1, wheelMask)
		if s < 0 {
			panic("sim: wheel count positive but no occupied bucket")
		}
		c.disp = (block&^wheelMask | int64(s)) << wheelBits
		c.cascade(wheelSlots + s)
	}
}
