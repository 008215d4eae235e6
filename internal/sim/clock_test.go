package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", c.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	c := NewClock()
	var got []string
	c.Schedule(2, "b", func() { got = append(got, "b") })
	c.Schedule(1, "a", func() { got = append(got, "a") })
	c.Schedule(3, "c", func() { got = append(got, "c") })
	c.RunUntilIdle(100)
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", c.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5, "tie", func() { got = append(got, i) })
	}
	c.RunUntilIdle(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := NewClock()
	c.Schedule(5, "x", func() {})
	c.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(1, "past", func() {})
}

func TestScheduleNonFinitePanics(t *testing.T) {
	c := NewClock()
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Schedule(%v) did not panic", at)
				}
			}()
			c.Schedule(at, "bad", func() {})
		}()
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.Schedule(1, "x", func() { fired = true })
	c.Cancel(e)
	c.RunUntilIdle(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !c.EventCancelled(e) {
		t.Fatal("EventCancelled() = false after Cancel")
	}
	// Cancelling twice must be a no-op, as must the zero ref.
	c.Cancel(e)
	c.Cancel(0)
}

func TestCancelOneOfMany(t *testing.T) {
	c := NewClock()
	var got []string
	a := c.Schedule(1, "a", func() { got = append(got, "a") })
	c.Schedule(2, "b", func() { got = append(got, "b") })
	c.Schedule(3, "c", func() { got = append(got, "c") })
	c.Cancel(a)
	c.RunUntilIdle(10)
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("got %v, want [b c]", got)
	}
}

func TestReschedule(t *testing.T) {
	c := NewClock()
	var at Time
	e := c.Schedule(10, "x", func() { at = c.Now() })
	e = c.Reschedule(e, 4)
	c.RunUntilIdle(10)
	if at != 4 {
		t.Fatalf("fired at %v, want 4", at)
	}
	// Rescheduling a fired event schedules anew.
	e = c.Reschedule(e, 7)
	fired := c.RunUntilIdle(10)
	if fired != 1 || c.Now() != 7 {
		t.Fatalf("re-fire: fired=%d now=%v, want 1 at 7", fired, c.Now())
	}
}

func TestAfterNegativePanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	c.After(-1, "neg", func() {})
}

func TestRunRespectsLimit(t *testing.T) {
	c := NewClock()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		c.Schedule(at, "t", func() { got = append(got, at) })
	}
	n := c.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) fired %d, want 3", n)
	}
	if c.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", c.Pending())
	}
}

func TestRunUntilIdleGuard(t *testing.T) {
	c := NewClock()
	var rearm func()
	rearm = func() { c.After(1, "loop", rearm) }
	rearm()
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not panic")
		}
	}()
	c.RunUntilIdle(50)
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	var got []Time
	c.Schedule(1, "outer", func() {
		got = append(got, c.Now())
		c.After(1, "inner", func() { got = append(got, c.Now()) })
	})
	c.RunUntilIdle(10)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestQuickFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewClock()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 16
			c.Schedule(at, "q", func() { fired = append(fired, c.Now()) })
		}
		c.RunUntilIdle(uint64(len(raw) + 1))
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset removes exactly that subset.
func TestQuickCancelSubset(t *testing.T) {
	f := func(raw []uint16, mask uint32) bool {
		c := NewClock()
		fired := 0
		var events []EventRef
		for _, r := range raw {
			events = append(events, c.Schedule(Time(r), "q", func() { fired++ }))
		}
		cancelled := 0
		for i, e := range events {
			if mask&(1<<(uint(i)%32)) != 0 {
				if !c.EventCancelled(e) {
					cancelled++
				}
				c.Cancel(e)
			}
		}
		c.RunUntilIdle(uint64(len(raw) + 1))
		return fired == len(raw)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == r.Uint64() {
		t.Fatal("degenerate stream from zero seed")
	}
}

func TestRandFloatRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) covered %d values, want 5", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandJitterRange(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(0.1)
		if v < 0.9 || v > 1.1 {
			t.Fatalf("Jitter(0.1) = %v out of [0.9,1.1]", v)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different tags produced identical first values")
	}
	// Forking must not perturb the parent stream.
	r2 := NewRand(5)
	r2.Fork(1)
	r2.Fork(2)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Fork perturbed the parent stream")
	}
}
