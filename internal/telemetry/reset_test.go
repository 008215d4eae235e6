package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCollectorResetMatchesFresh(t *testing.T) {
	drive := func(c *Collector) string {
		x := 0.0
		c.Register("x", func() float64 { x++; return x })
		c.Tick(1)
		c.Tick(2)
		c.Register("late", func() float64 { return 7 }) // NaN-backfilled
		c.Tick(3)
		var b strings.Builder
		if err := c.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	reused := NewCollector()
	drive(reused)
	reused.Reset()
	want := drive(NewCollector())
	got := drive(reused)
	if want != got {
		t.Fatalf("reset collector diverges from fresh:\nfresh:\n%s\nreused:\n%s", want, got)
	}
}

func TestCollectorResetClearsState(t *testing.T) {
	c := NewCollector()
	s := c.Register("a", func() float64 { return 1 })
	c.Tick(1)
	c.Reset()
	if c.Ticks() != 0 {
		t.Fatalf("Ticks = %d after Reset", c.Ticks())
	}
	if got := c.Names(); len(got) != 0 {
		t.Fatalf("Names = %v after Reset", got)
	}
	if c.Get("a") != nil {
		t.Fatal("series still registered after Reset")
	}
	// Re-registering the old name is legal (no duplicate panic) and
	// recycles the retired ring buffer.
	s2 := c.Register("a", func() float64 { return 2 })
	if s2 != s {
		t.Fatal("Register did not recycle the retired series")
	}
	if s2.Len() != 0 || s2.Dropped() != 0 {
		t.Fatalf("recycled series not empty: len=%d dropped=%d", s2.Len(), s2.Dropped())
	}
	// Time may restart from zero: the old lastT watermark must be gone.
	c.Tick(0.5)
	if s2.Len() != 1 || s2.Last().V != 2 {
		t.Fatalf("recycled series sample: len=%d last=%v", s2.Len(), s2.Last())
	}
}

func TestCollectorResetBackfillAfterReuse(t *testing.T) {
	c := NewCollector()
	c.Register("a", func() float64 { return 1 })
	c.Tick(1)
	c.Tick(2)
	c.Reset()
	c.Register("b", func() float64 { return 3 })
	c.Tick(10)
	// A series registered after the post-reset tick backfills only the
	// new epoch's instants.
	late := c.Register("late", func() float64 { return 4 })
	if late.Len() != 1 || !math.IsNaN(late.At(0).V) || late.At(0).T != 10 {
		t.Fatalf("late backfill after Reset: len=%d first=%v", late.Len(), late.At(0))
	}
}

// TestCollectorResetCycleAllocFree pins the pooled worker's cycle: on a
// warm collector, Reset, re-registering every series (one of them
// after a tick, so it backfills) and ticking allocate nothing, and
// Reset drops every probe closure of the previous run.
func TestCollectorResetCycleAllocFree(t *testing.T) {
	c := NewCollector()
	fn := func() float64 { return 1 }
	cycle := func() {
		c.Reset()
		c.Register("a", fn)
		c.Register("b", fn)
		c.Tick(1)
		c.Register("late", fn)
		c.Tick(2)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("reset-and-re-register cycle allocates %v times, want 0", allocs)
	}
	c.Reset()
	for i, p := range c.probes[:cap(c.probes)] {
		if p.fn != nil {
			t.Fatalf("probe %d (%s) keeps its closure after Reset", i, p.s.name)
		}
	}
}
