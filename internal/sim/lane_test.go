package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// runParkDiff drives a parking clock and an always-beat twin through
// the same seeded script. Every periodic chain runs the same body on
// both clocks; on the parking clock a chain marked quiet parks at its
// next full beat, after which its beats run an idle callback with that
// same body. The twin never parks. Wakes (Unpark) happen from the
// script, from one-shot events and from inside a chain's own idle
// beat; one-shots land exactly on beat instants, queued both before
// the chain's re-arm (from inside its beat) and after it (from the
// script, sometimes followed at once by a park or wake of the chain). The two clocks must agree at every step on the firing
// sequence, Now, Pending, Fired and EventLive, under Step, Run(limit),
// Reschedule, Cancel and Reset.
func runParkDiff(t *testing.T, seed uint64, heapOnly bool) {
	t.Helper()
	const (
		parking = 0
		twin    = 1
	)
	var clocks [2]*Clock
	for s := range clocks {
		clocks[s] = NewClock()
		clocks[s].SetHeapOnly(heapOnly)
	}
	script := NewRand(seed)
	// Callback decisions draw from one stream per clock; identical
	// firing sequences keep the two streams in step.
	draws := [2]*Rand{NewRand(seed + 1000), NewRand(seed + 1000)}

	type rec struct {
		id int
		at Time
	}
	type chain struct {
		refs   [2]EventRef
		period Time
		next   Time // the chain's next beat instant (both sides compute the same)
		quiet  bool // the parking clock parks this chain at its next full beat
		idle   func()
	}
	var (
		logs    [2][]rec
		chains  []*chain
		oneShot [2]int
		parks   uint64
	)
	oneShotID := func(s int) int { oneShot[s]++; return -oneShot[s] }
	record := func(s, id int) { logs[s] = append(logs[s], rec{id, clocks[s].Now()}) }

	body := func(s, k int) {
		c, ch := clocks[s], chains[k]
		record(s, k)
		ch.next = c.Now() + ch.period
		switch draws[s].Intn(10) {
		case 0, 1: // a one-shot on this chain's next beat, queued before its re-arm
			id := oneShotID(s)
			c.Schedule(ch.next, "tie", func() { record(s, id) })
		case 2: // the chain stops itself
			c.Cancel(ch.refs[s])
		case 3: // the chain wakes itself (from inside its idle beat when parked)
			if s == parking {
				c.Unpark(ch.refs[s])
				ch.quiet = false
			}
		}
	}
	addChain := func(at, period Time) {
		k := len(chains)
		ch := &chain{period: period}
		chains = append(chains, ch)
		ch.idle = func() { body(parking, k) }
		full := func() {
			body(parking, k)
			if ch.quiet {
				clocks[parking].Park(ch.refs[parking], ch.idle)
			}
		}
		ch.refs[parking] = clocks[parking].SchedulePeriodic(at, period, "chain", full)
		ch.refs[twin] = clocks[twin].SchedulePeriodic(at, period, "chain", func() { body(twin, k) })
		ch.next = at
	}
	// liveChain picks a chain that is live on both clocks, or -1; half
	// the time it prefers a parked one, the interesting case for wakes
	// and ties.
	liveChain := func() int {
		if len(chains) == 0 {
			return -1
		}
		k := script.Intn(len(chains))
		if script.Intn(2) == 0 {
			for i := range chains {
				if j := (k + i) % len(chains); clocks[parking].EventParked(chains[j].refs[parking]) {
					return j
				}
			}
		}
		if !clocks[parking].EventLive(chains[k].refs[parking]) {
			return -1
		}
		return k
	}
	delay := func() Time {
		switch v := script.Float64(); {
		case v < 0.8:
			return script.Float64() * 3
		case v < 0.95:
			return 4 + script.Float64()*60
		default:
			return 1100 + script.Float64()*100
		}
	}
	check := func(op string) {
		t.Helper()
		a, b := clocks[parking], clocks[twin]
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("%s: fired %d events parked, %d always-beat", op, len(logs[0]), len(logs[1]))
		}
		if n := len(logs[0]); n > 0 && logs[0][n-1] != logs[1][n-1] {
			t.Fatalf("%s: firing diverges at %d: parked %+v, always-beat %+v", op, n-1, logs[0][n-1], logs[1][n-1])
		}
		if a.Now() != b.Now() || a.Pending() != b.Pending() || a.Fired() != b.Fired() {
			t.Fatalf("%s: Now %v/%v Pending %d/%d Fired %d/%d", op, a.Now(), b.Now(),
				a.Pending(), b.Pending(), a.Fired(), b.Fired())
		}
		for k, ch := range chains {
			if a.EventLive(ch.refs[parking]) != b.EventLive(ch.refs[twin]) {
				t.Fatalf("%s: chain %d EventLive differs", op, k)
			}
			// Every wake clears quiet and unparks, so a chain that is
			// not quiet must not be parked.
			if a.EventParked(ch.refs[parking]) && !ch.quiet {
				t.Fatalf("%s: chain %d still parked after a wake", op, k)
			}
		}
	}

	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			addChain(script.Float64()*2, 0.25+Time(script.Intn(8))*0.25)
		}
		for step := 0; step < 6000; step++ {
			var op string
			switch v := script.Intn(100); {
			case v < 55:
				op = "step"
				if clocks[parking].Step() != clocks[twin].Step() {
					t.Fatal("Step disagrees on an empty queue")
				}
			case v < 62:
				op = "quiet"
				if k := liveChain(); k >= 0 {
					chains[k].quiet = true
				}
			case v < 65:
				op = "park now"
				if k := liveChain(); k >= 0 {
					chains[k].quiet = true
					clocks[parking].Park(chains[k].refs[parking], chains[k].idle)
				}
			case v < 68:
				op = "unpark"
				if k := liveChain(); k >= 0 {
					chains[k].quiet = false
					clocks[parking].Unpark(chains[k].refs[parking])
				}
			case v < 74:
				// A one-shot on a chain's next beat, queued after its
				// re-arm; then, half the time, the chain flips between
				// lanes, which must keep its place ahead of the one-shot.
				op = "tie after re-arm"
				if k := liveChain(); k >= 0 {
					for s, c := range clocks {
						id := oneShotID(s)
						c.Schedule(chains[k].next, "tie", func() { record(s, id) })
					}
					if script.Intn(2) == 0 {
						ch := chains[k]
						ch.quiet = !clocks[parking].EventParked(ch.refs[parking])
						if ch.quiet {
							clocks[parking].Park(ch.refs[parking], ch.idle)
						} else {
							clocks[parking].Unpark(ch.refs[parking])
						}
					}
				}
			case v < 78:
				op = "waker"
				if k := liveChain(); k >= 0 {
					at := clocks[parking].Now() + delay()
					for s, c := range clocks {
						id := oneShotID(s)
						c.Schedule(at, "wake", func() {
							record(s, id)
							if s == parking {
								chains[k].quiet = false
								c.Unpark(chains[k].refs[s])
							}
						})
					}
				}
			case v < 81:
				op = "killer"
				if k := liveChain(); k >= 0 {
					at := clocks[parking].Now() + delay()
					for s, c := range clocks {
						id := oneShotID(s)
						c.Schedule(at, "kill", func() { record(s, id); c.Cancel(chains[k].refs[s]) })
					}
				}
			case v < 85:
				op = "reschedule"
				if k := liveChain(); k >= 0 {
					at := clocks[parking].Now() + delay()
					for s, c := range clocks {
						c.Reschedule(chains[k].refs[s], at)
					}
					chains[k].next = at
				}
			case v < 88:
				op = "cancel"
				if k := liveChain(); k >= 0 {
					for s, c := range clocks {
						c.Cancel(chains[k].refs[s])
					}
				}
			case v < 91:
				op = "chain"
				addChain(clocks[parking].Now()+script.Float64()*2, 0.25+Time(script.Intn(8))*0.25)
			default:
				op = "run"
				limit := clocks[parking].Now() + script.Float64()*3
				if na, nb := clocks[parking].Run(limit), clocks[twin].Run(limit); na != nb {
					t.Fatalf("Run(%v) fired %d parked, %d always-beat", limit, na, nb)
				}
			}
			check(fmt.Sprintf("round %d op %d (%s)", round, step, op))
		}
		if clocks[twin].ParkedFired() != 0 {
			t.Fatal("the always-beat twin parked")
		}
		parks += clocks[parking].ParkedFired()
		// Reset both mid-flight, parked chains and all, and replay a
		// fresh round on the reused storage.
		for s, c := range clocks {
			c.Reset()
			logs[s] = logs[s][:0]
		}
		chains = nil
		if clocks[parking].ParkedFired() != 0 || clocks[parking].Pending() != 0 {
			t.Fatal("Reset left lane state behind")
		}
		check(fmt.Sprintf("round %d reset", round))
	}
	if parks == 0 {
		t.Fatal("no beat was parked; the differential is vacuous")
	}
}

func TestParkDifferential(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("heapOnly=%v/seed%d", heapOnly, seed), func(t *testing.T) {
				runParkDiff(t, seed, heapOnly)
			})
		}
	}
}

// Parked beats fire, so they count in Fired and against the
// RunUntilIdle guard exactly as the beats they replace.
func TestParkedBeatsCountInFired(t *testing.T) {
	c := NewClock()
	beats := 0
	var ref EventRef
	ref = c.SchedulePeriodic(0, 1, "beat", func() { c.Park(ref, func() { beats++ }) })
	c.Run(9.5)
	if c.Fired() != 10 || c.ParkedFired() != 9 || beats != 9 {
		t.Fatalf("Fired %d ParkedFired %d idle beats %d, want 10, 9, 9", c.Fired(), c.ParkedFired(), beats)
	}
	if !c.EventParked(ref) || !c.EventLive(ref) || c.Pending() != 1 {
		t.Fatalf("parked chain: parked=%v live=%v pending=%d", c.EventParked(ref), c.EventLive(ref), c.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntilIdle did not trip its guard on a parked chain")
		}
	}()
	c.RunUntilIdle(100)
}

func TestParkOneShotPanics(t *testing.T) {
	c := NewClock()
	ref := c.Schedule(1, "once", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Park of a one-shot event did not panic")
		}
	}()
	c.Park(ref, func() {})
}

// Park, Unpark and Cancel of dead refs are no-ops, like Cancel.
func TestParkDeadRefIsNoOp(t *testing.T) {
	c := NewClock()
	ref := c.SchedulePeriodic(1, 1, "beat", func() {})
	c.Cancel(ref)
	c.Park(ref, func() {})
	c.Unpark(ref)
	c.Park(0, func() {})
	c.Unpark(0)
	if c.Pending() != 0 || c.EventParked(ref) {
		t.Fatalf("dead ref parked: pending=%d", c.Pending())
	}
}

// The lane reuses heapIdx and keeps idle callbacks in a side table, so
// parking does not grow the arena slot.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 72 {
		t.Fatalf("eventSlot is %d bytes, want 72", got)
	}
}

// A parked beat allocates nothing: its re-arm slides the lane through
// reused storage.
func TestParkedBeatZeroAlloc(t *testing.T) {
	c := NewClock()
	idle := func() {}
	for i := 0; i < 8; i++ {
		c.Park(c.SchedulePeriodic(Time(i)/8, 1, "beat", func() {}), idle)
	}
	for i := 0; i < 256; i++ {
		c.Step()
	}
	if allocs := testing.AllocsPerRun(1024, func() { c.Step() }); allocs != 0 {
		t.Fatalf("parked Step allocated %v allocs/op, want 0", allocs)
	}
}

// Parking from inside a beat and waking from another event allocate
// nothing once the lane and idle table have grown.
func TestParkUnparkZeroAlloc(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		c := NewClock()
		c.SetHeapOnly(heapOnly)
		idle := func() {}
		refs := make([]EventRef, 8)
		for i := range refs {
			i := i
			refs[i] = c.SchedulePeriodic(Time(i)/8, 1, "beat", func() { c.Park(refs[i], idle) })
		}
		c.SchedulePeriodic(0.5, 3, "wake", func() {
			for _, r := range refs {
				c.Unpark(r)
			}
		})
		for i := 0; i < 256; i++ {
			c.Step()
		}
		if allocs := testing.AllocsPerRun(1024, func() { c.Step() }); allocs != 0 {
			t.Fatalf("heapOnly=%v: park/unpark Step allocated %v allocs/op, want 0", heapOnly, allocs)
		}
		if c.ParkedFired() == 0 {
			t.Fatalf("heapOnly=%v: no beat parked", heapOnly)
		}
	}
}
